"""Distribution-aware performance model (§5.3).

Predicts the replication time

    T_rep = T_func + T_transfer

where, for a plan with ``n`` replicator functions executing at location
``loc`` (the source or destination region):

    T_func     = 0                          (inline, small objects)
               = I(loc) + D(loc)            (single remote replicator)
               = I(loc)·n + D(loc) + P(loc) (parallel replicators)

    T_transfer = S + C·k                    (single function, k chunks)
               = max_i ( S_i + C'_i·⌈k/n⌉ ) (distributed)

All parameters — invocation latency *I*, instance readiness delay *D*,
scheduler postponement *P*, client startup *S*, per-chunk time *C*
(single) and *C'* (distributed, including the two KV accesses per
part) — are **distributions**, not point estimates, because certain
clouds and regions have high performance variability (Fig 9).  Samples
are fitted to normals; weighted sums of the parameters stay normal, so
percentiles are closed-form.  The one exception is the distributed
``T_transfer``: the max of n i.i.d. normals, obtained by Monte-Carlo
resampling for moderate n and by the Gumbel limit from extreme-value
theory for large n (significantly faster than resampling).

Chunks of one task share the same function instance, so per-chunk
times are modelled as fully correlated within an instance: ``C·k`` has
mean ``k·μ_C`` and standard deviation ``k·σ_C``.  This errs on the side
of overestimation, which the paper accepts ("the model is allowed to
overestimate the replication time to some extent").

Every prediction depends on the object size only through its chunk
count ``num_chunks(size)`` — auxiliary seeded draws are keyed on the
chunk count too, so two sizes in the same chunk bucket yield
bit-identical predictions.  That exactness is what lets the planner
cache whole plans per size bucket (see ``core.planner.PlanCache``);
parameter updates are broadcast to registered invalidation listeners.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from repro.simcloud.rng import _checkpoint, _restore

__all__ = ["NormalParam", "LocParams", "PathParams", "PerformanceModel", "PathKey"]

PathKey = tuple[str, str, str]  # (exec loc key, src key, dst key)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the inverse standard-normal CDF.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_PPF_LOW = 0.02425


def _norm_ppf(p: float) -> float:
    """Inverse standard-normal CDF without scipy.

    Acklam's rational approximation (|ε| < 1.15e-9) polished by one
    Halley step against ``math.erfc``, which brings the result to
    within a few ULP of ``scipy.stats.norm.ppf`` — the previous
    per-call scipy import dominated planner cost.
    """
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise ValueError(f"percentile must be in [0, 1], got {p}")
    if p < _PPF_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_PPF_C[0] * q + _PPF_C[1]) * q + _PPF_C[2]) * q + _PPF_C[3])
               * q + _PPF_C[4]) * q + _PPF_C[5])
             / ((((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q
                 + _PPF_D[3]) * q + 1.0))
    elif p <= 1.0 - _PPF_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_PPF_A[0] * r + _PPF_A[1]) * r + _PPF_A[2]) * r + _PPF_A[3])
               * r + _PPF_A[4]) * r + _PPF_A[5]) * q
             / (((((_PPF_B[0] * r + _PPF_B[1]) * r + _PPF_B[2]) * r
                  + _PPF_B[3]) * r + _PPF_B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_PPF_C[0] * q + _PPF_C[1]) * q + _PPF_C[2]) * q + _PPF_C[3])
                * q + _PPF_C[4]) * q + _PPF_C[5])
              / ((((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q
                  + _PPF_D[3]) * q + 1.0))
    # One Halley refinement: e = Φ(x) − p, u = e / φ(x).
    e = 0.5 * math.erfc(-x / _SQRT2) - p
    u = e * _SQRT_2PI * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


@dataclass(frozen=True)
class NormalParam:
    """A parameter described as a (truncated-at-zero) normal."""

    mean: float
    std: float

    @staticmethod
    def from_samples(samples) -> "NormalParam":
        xs = np.asarray(list(samples), dtype=float)
        if xs.size == 0:
            raise ValueError("cannot fit a parameter to zero samples")
        std = float(xs.std(ddof=1)) if xs.size > 1 else 0.0
        return NormalParam(float(xs.mean()), std)

    @staticmethod
    def zero() -> "NormalParam":
        return _ZERO

    def scaled(self, k: float) -> "NormalParam":
        """The distribution of ``k · X`` (fully correlated repetition)."""
        return NormalParam(self.mean * k, self.std * abs(k))

    def iid_sum(self, n: int) -> "NormalParam":
        """The distribution of the sum of ``n`` independent draws."""
        return NormalParam(self.mean * n, self.std * math.sqrt(n))

    def plus(self, other: "NormalParam") -> "NormalParam":
        """Sum of two independent normals."""
        return NormalParam(self.mean + other.mean,
                           math.hypot(self.std, other.std))

    def percentile(self, p: float) -> float:
        if self.std == 0:
            return self.mean
        return self.mean + self.std * _norm_ppf(p)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.maximum(rng.normal(self.mean, self.std, size), 0.0)


_ZERO = NormalParam(0.0, 0.0)


@dataclass(frozen=True)
class LocParams:
    """Function-platform parameters at one execution location."""

    invoke: NormalParam          # I(loc)
    startup: NormalParam         # D(loc)
    postponement: NormalParam    # P(loc)


@dataclass(frozen=True)
class PathParams:
    """Transfer parameters for one (exec loc, src, dst) path."""

    client_startup: NormalParam     # S(src, dst, loc)
    chunk: NormalParam              # C(src, dst, loc), single-function
    chunk_distributed: NormalParam  # C'(src, dst, loc), incl. KV accesses

    def scaled(self, ratio: float) -> "PathParams":
        """Uniformly rescale the path (runtime drift correction)."""
        return PathParams(
            self.client_startup.scaled(ratio),
            self.chunk.scaled(ratio),
            self.chunk_distributed.scaled(ratio),
        )


def _linear_quantiles(rows: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """``np.quantile(rows, ps, axis=1).T`` for rows sorted ascending.

    NumPy's default (linear) method written out formula for formula,
    its ``gamma >= 0.5`` branch included, so the bits are equal.  One
    row-wise sort serves every quantile; ``np.quantile``'s general path
    (a copy, a partition on every needed index, masked interpolation)
    costs several times more on the planner's small blocks.
    """
    n = rows.shape[1]
    out = np.empty((rows.shape[0], len(ps)))
    for j, p in enumerate(ps):
        virtual = (n - 1) * p
        if virtual >= n - 1:
            out[:, j] = rows[:, -1]
            continue
        lo = math.floor(virtual)
        gamma = virtual - lo
        below, above = rows[:, lo], rows[:, lo + 1]
        diff = above - below
        out[:, j] = (above - diff * (1 - gamma) if gamma >= 0.5
                     else below + diff * gamma)
    return out


@lru_cache(maxsize=4096)
def _gumbel_constants(n: int) -> tuple[float, float]:
    """Extreme-value normalizing constants for the max of n std normals."""
    ln_n = math.log(n)
    a = math.sqrt(2 * ln_n) - (math.log(ln_n) + math.log(4 * math.pi)) / (
        2 * math.sqrt(2 * ln_n)
    )
    b = 1.0 / math.sqrt(2 * ln_n)
    return a, b


@dataclass
class PerformanceModel:
    """The two-fold (single / parallel) distribution-aware model."""

    chunk_size: int
    mc_samples: int = 2000
    gumbel_threshold: int = 64
    seed: int = 0
    loc_params: dict[str, LocParams] = field(default_factory=dict)
    path_params: dict[PathKey, PathParams] = field(default_factory=dict)
    _mc_cache: dict[tuple, np.ndarray | tuple] = field(default_factory=dict, repr=False)
    mc_runs: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._listeners: list[Callable[[Optional[PathKey]], None]] = []

    # -- parameter management --------------------------------------------------

    def subscribe_invalidation(
            self, fn: Callable[[Optional[PathKey]], None]) -> None:
        """Register a listener called whenever predictions may change.

        The listener receives the affected :data:`PathKey`, or ``None``
        when every cached prediction must be dropped (location-level
        parameter changes affect all paths through that location).
        """
        self._listeners.append(fn)

    def _notify(self, key: Optional[PathKey]) -> None:
        for fn in self._listeners:
            fn(key)

    def set_loc_params(self, loc_key: str, params: LocParams) -> None:
        self.loc_params[loc_key] = params
        self._notify(None)

    def set_path_params(self, key: PathKey, params: PathParams) -> None:
        self.path_params[key] = params
        self._invalidate(key)

    def has_path(self, key: PathKey) -> bool:
        return key in self.path_params and key[0] in self.loc_params

    def scale_path(self, key: PathKey, ratio: float) -> None:
        """Drift correction: rescale a path's transfer parameters."""
        if ratio <= 0:
            raise ValueError("scale ratio must be positive")
        self.path_params[key] = self.path_params[key].scaled(ratio)
        self._invalidate(key)

    def _invalidate(self, key: PathKey) -> None:
        stale = [k for k in self._mc_cache if k[:3] == key]
        for k in stale:
            del self._mc_cache[k]
        self._notify(key)

    # -- chunk math ------------------------------------------------------------

    def num_chunks(self, size: int) -> int:
        return max(1, math.ceil(size / self.chunk_size))

    def chunks_per_function(self, size: int, n: int) -> int:
        return math.ceil(self.num_chunks(size) / n)

    # -- T_func -----------------------------------------------------------------

    def t_func(self, n: int, loc_key: str, inline: bool = False) -> NormalParam:
        """Distribution of the function-readiness time.

        ``inline`` means the orchestrator handles the object locally
        (small objects), so T_func is identically zero.
        """
        if inline:
            return _ZERO
        lp = self.loc_params[loc_key]
        if n == 1:
            return lp.invoke.plus(lp.startup)
        return lp.invoke.iid_sum(n).plus(lp.startup).plus(lp.postponement)

    # -- T_transfer ----------------------------------------------------------------

    def t_transfer_single(self, key: PathKey, size: int) -> NormalParam:
        pp = self.path_params[key]
        k = self.num_chunks(size)
        return pp.client_startup.plus(pp.chunk.scaled(k))

    def _per_instance(self, key: PathKey, size: int, n: int) -> NormalParam:
        pp = self.path_params[key]
        m = self.chunks_per_function(size, n)
        return pp.client_startup.plus(pp.chunk_distributed.scaled(m))

    def transfer_tail_samples(self, key: PathKey, size: int, n: int) -> np.ndarray:
        """Monte-Carlo samples of ``max_i(S_i + C'_i·m)`` (cached).

        The simulation is an on-demand process: it runs when the cache
        is cold (bootstrap) and after :meth:`scale_path` /
        :meth:`set_path_params` invalidate the entry (drift detected).
        Most keys are asked for once, so a miss keeps only a checkpoint
        of ``self._rng`` from before its draw, not its
        ``8·mc_samples``-byte row; the first hit redraws the row from
        the checkpoint and keeps it.  Only misses consume ``self._rng``.
        """
        m = self.chunks_per_function(size, n)
        cache_key = (*key, n, m)
        cached = self._mc_cache.get(cache_key)
        if cached is None:
            self._mc_cache[cache_key] = _checkpoint(self._rng)
            self.mc_runs += 1
            return self._tail_row(self._rng, key, size, n)
        if type(cached) is int:
            cached = self._mc_cache[cache_key] = self._tail_row(
                _restore(cached), key, size, n)
        return cached

    def _tail_row(self, rng: np.random.Generator, key: PathKey, size: int,
                  n: int) -> np.ndarray:
        # The row max of ``per_inst.sample(rng, (mc, n))``, taken on the
        # standard normals before ``mean + std·z`` and the zero floor:
        # rounding is monotone, so the bits are equal, and
        # ``standard_normal`` consumes the stream as ``normal`` does.
        # Column by column (NumPy reduces a short inner axis an order of
        # magnitude slower) and in place, into a row allocated before
        # the draw: a long-lived row placed after the freed (mc, n)
        # block pins the heap above it and raises the peak RSS of a
        # planner-heavy replay.
        per_inst = self._per_instance(key, size, n)
        row = np.empty(self.mc_samples)
        z = rng.standard_normal((self.mc_samples, n))
        np.copyto(row, z[:, 0])
        for j in range(1, n):
            np.maximum(row, z[:, j], out=row)
        row *= per_inst.std
        row += per_inst.mean
        np.maximum(row, 0.0, out=row)
        return row

    def t_transfer_parallel_percentile(self, key: PathKey, size: int, n: int,
                                       p: float) -> float:
        if n >= self.gumbel_threshold:
            return self._gumbel_percentile(key, size, n, p)
        samples = self.transfer_tail_samples(key, size, n)
        return float(np.quantile(samples, p))

    def _gumbel_percentile(self, key: PathKey, size: int, n: int, p: float) -> float:
        """EVT approximation: the max of n i.i.d. normals converges to a
        Gumbel with location ``μ + σ·a_n`` and scale ``σ·b_n``."""
        per_inst = self._per_instance(key, size, n)
        a_n, b_n = _gumbel_constants(n)
        location = per_inst.mean + per_inst.std * a_n
        scale = per_inst.std * b_n
        return location - scale * math.log(-math.log(p))

    # -- full prediction ----------------------------------------------------------

    def predict_percentile(self, key: PathKey, size: int, n: int, p: float,
                           inline: bool = False) -> float:
        """The time ``t`` such that ``P(T_rep <= t) >= p`` for this plan."""
        return float(self.predict_percentiles(key, size, [(n, inline)], [p])[0, 0])

    def predict_percentiles(self, key: PathKey, size: int,
                            candidates: Sequence[tuple[int, bool]],
                            ps: Sequence[float]) -> np.ndarray:
        """Percentiles for many candidate plans in one NumPy pass.

        ``candidates`` is a sequence of ``(n, inline)`` pairs; the
        result has shape ``(len(candidates), len(ps))``.  Closed-form
        (n == 1) and Gumbel-range candidates never touch the Monte-Carlo
        machinery; the others add T_func draws, seeded by the plan key so
        that percentiles stay monotone across calls, to the transfer
        samples and share one row-wise sort of the sums.
        """
        ps = list(ps)
        out = np.empty((len(candidates), len(ps)), dtype=float)
        mc_rows: list[int] = []
        mc_totals: list[np.ndarray] = []
        for i, (n, inline) in enumerate(candidates):
            t_func = self.t_func(n, key[0], inline=inline)
            if n == 1:
                total = t_func.plus(self.t_transfer_single(key, size))
                out[i] = [total.percentile(p) for p in ps]
            elif n >= self.gumbel_threshold:
                out[i] = [t_func.percentile(p)
                          + self._gumbel_percentile(key, size, n, p)
                          for p in ps]
            else:
                transfer = self.transfer_tail_samples(key, size, n)
                func_rng = np.random.default_rng(
                    self._stable_seed(key, size, n, inline))
                mc_rows.append(i)
                mc_totals.append(transfer + t_func.sample(func_rng, transfer.size))
        if mc_rows:
            out[mc_rows] = _linear_quantiles(
                np.sort(np.vstack(mc_totals), axis=1), ps)
        return out

    def _stable_seed(self, key: PathKey, size: int, n: int,
                     inline: bool) -> int:
        """Process-independent seed for per-plan auxiliary draws.

        Keyed on the chunk count, not the raw size: predictions depend
        on size only through ``num_chunks``, and keeping the seed in
        the same equivalence class makes plan-level caching exact.
        """
        token = f"{self.seed}:{key}:{self.num_chunks(size)}:{n}:{inline}".encode()
        return int.from_bytes(hashlib.sha256(token).digest()[:8], "little")

    def predict_stats(self, key: PathKey, size: int, n: int,
                      inline: bool = False) -> tuple[float, float]:
        """(mean, std) of the predicted replication time (Table 4)."""
        t_func = self.t_func(n, key[0], inline=inline)
        if n == 1:
            total = t_func.plus(self.t_transfer_single(key, size))
            return total.mean, total.std
        transfer = self.transfer_tail_samples(key, size, n)
        func_draws = t_func.sample(self._rng, transfer.size)
        total = transfer + func_draws
        return float(total.mean()), float(total.std())

    def predict_samples(self, key: PathKey, size: int, n: int,
                        inline: bool = False,
                        count: Optional[int] = None) -> np.ndarray:
        """Raw predicted-T_rep samples (for Fig 18/19 density overlays)."""
        count = count or self.mc_samples
        t_func = self.t_func(n, key[0], inline=inline)
        func_draws = t_func.sample(self._rng, count)
        if n == 1:
            transfer = self.t_transfer_single(key, size).sample(self._rng, count)
            return func_draws + transfer
        per_inst = self._per_instance(key, size, n)
        draws = np.asarray(per_inst.sample(self._rng, (count, n))).reshape(count, n)  # type: ignore[arg-type]
        return func_draws + draws.max(axis=1)
