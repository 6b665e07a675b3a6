"""Wide-area network fabric.

Models the two empirical phenomena the paper's characterization (§3)
identifies as the key challenges for serverless replication:

* **Asymmetric performance of clouds/regions** (Fig 8): the achievable
  bandwidth depends not only on the (source, destination) pair but on
  *which platform executes the function*.  We compose a per-platform
  NIC cap, a platform WAN efficiency factor, a continental distance
  factor, and a cross-provider (public internet) penalty; specific
  pairs can additionally be overridden.

* **Performance variability of instances** (Fig 9): every function
  instance draws a persistent lognormal speed factor at cold start, and
  each transfer additionally sees autocorrelated jitter, so bandwidth
  differs by more than 2x between instances with identical
  configuration, with no predictable pattern.

Bandwidths also depend on the function's memory/vCPU configuration
(Fig 6): AWS and Azure scale network with memory up to a sweet spot,
GCP with vCPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.simcloud.chaos import ChaosConfig, ChaosDraws, outage_end
from repro.simcloud.regions import Provider, Region
from repro.simcloud.rng import BufferedSampler, Dist, RngFactory, normal

__all__ = ["FunctionConfig", "NetworkProfile", "InstanceChannel", "NetworkFabric",
           "DEFAULT_PROFILE"]

#: Trace attribute names, one tuple per record schema.
_BLACKOUT_KEYS = ("seconds",)
_WAIT_KEYS = ("regions", "seconds")


@dataclass(frozen=True)
class FunctionConfig:
    """Compute configuration of a cloud function (drives bandwidth)."""

    memory_mb: int = 1024
    vcpus: float = 1.0


# Default, best-price configurations the paper uses in §8 ("we manually
# configure cloud functions so that they achieve the best performance at
# the lowest cost").
BEST_CONFIGS: dict[str, FunctionConfig] = {
    Provider.AWS: FunctionConfig(memory_mb=1024, vcpus=0.6),
    Provider.AZURE: FunctionConfig(memory_mb=2048, vcpus=1.0),
    Provider.GCP: FunctionConfig(memory_mb=1024, vcpus=2.0),
}


@dataclass(frozen=True)
class NetworkProfile:
    """All tunable parameters of the WAN model (calibration lives here)."""

    # Per-function WAN cap (Mbps) at full configuration scale.
    nic_cap_mbps: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 620.0,
            Provider.AZURE: 480.0,
            Provider.GCP: 540.0,
        }
    )
    # In-region object store access bandwidth per function (Mbps).
    intra_mbps: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 950.0,
            Provider.AZURE: 750.0,
            Provider.GCP: 850.0,
        }
    )
    # Platform efficiency on WAN paths (AWS Lambda fastest & most stable).
    platform_wan_factor: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 1.0,
            Provider.AZURE: 0.62,
            Provider.GCP: 0.85,
        }
    )
    # Continental distance factors for a single TCP stream.
    same_region_factor: float = 1.0
    same_continent_factor: float = 0.82
    continent_factor: dict[tuple[str, str], float] = field(
        default_factory=lambda: {
            ("na", "eu"): 0.52,
            ("eu", "na"): 0.52,
            ("na", "ap"): 0.30,
            ("ap", "na"): 0.30,
            ("eu", "ap"): 0.24,
            ("ap", "eu"): 0.24,
        }
    )
    # Crossing the public internet between providers.
    cross_provider_factor: float = 0.78
    # Upload (PUT) achieves slightly less than download (GET).
    upload_factor: float = 0.92
    # Persistent per-instance lognormal sigma (the Fig 9 spread).
    instance_sigma: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 0.16,
            Provider.AZURE: 0.42,
            Provider.GCP: 0.34,
        }
    )
    # Per-transfer multiplicative jitter sigma.
    transfer_sigma: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 0.08,
            Provider.AZURE: 0.22,
            Provider.GCP: 0.18,
        }
    )
    # AR(1) coefficient for within-instance bandwidth drift over time.
    drift_rho: float = 0.85
    # Client startup overhead S before bytes flow (seconds).
    startup_s: dict[str, Dist] = field(
        default_factory=lambda: {
            Provider.AWS: normal(0.22, 0.05),
            Provider.AZURE: normal(0.35, 0.10),
            Provider.GCP: normal(0.28, 0.08),
        }
    )
    # Mean-bandwidth degradation with concurrency: bw /= 1 + alpha*(n-1)/64.
    congestion_alpha: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 0.06,
            Provider.AZURE: 0.55,
            Provider.GCP: 0.40,
        }
    )
    # Extra variability under concurrency ("links unstable with parallelism").
    congestion_sigma: dict[str, float] = field(
        default_factory=lambda: {
            Provider.AWS: 0.02,
            Provider.AZURE: 0.10,
            Provider.GCP: 0.07,
        }
    )
    # Directed Mbps overrides for specific (exec_provider, src_key, dst_key).
    pair_overrides: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def config_scale(self, provider: str, config: FunctionConfig) -> float:
        """Bandwidth scale in (0, 1] as a function of compute config.

        Captures Fig 6: bandwidth grows with memory (AWS/Azure) or vCPUs
        (GCP) and saturates at a sweet spot beyond which more expensive
        configurations buy nothing.
        """
        if provider == Provider.AWS:
            # Scales with memory up to ~1 GB, flat afterwards.
            return min(1.0, 0.25 + 0.75 * config.memory_mb / 1024.0)
        if provider == Provider.AZURE:
            # 2048 MB is both the minimum and the knee.
            return min(1.0, 0.40 + 0.60 * config.memory_mb / 2048.0)
        # GCP: network follows vCPUs; saturates at 2 vCPUs.
        return min(1.0, 0.35 + 0.65 * config.vcpus / 2.0)


DEFAULT_PROFILE = NetworkProfile()


class InstanceChannel:
    """Per-function-instance view of the network.

    Holds the instance's persistent speed factor and an AR(1) drift
    state so that consecutive transfers by the same instance are
    correlated (an instance that is slow now tends to stay slow), which
    is what makes straggler mitigation worthwhile: the engine's hedged
    clones force a cold start (``fresh_instance``) precisely to draw an
    independent :attr:`base_factor` instead of inheriting a warm
    instance's persistent one.
    """

    __slots__ = ("base_factor", "_drift", "_half_sigma2", "_rho",
                 "_innovations")

    def __init__(self, provider: str, profile: NetworkProfile,
                 rng: np.random.Generator, innovation: Dist):
        sigma = profile.instance_sigma[provider]
        # Mean-one lognormal: E[exp(N(-s^2/2, s^2))] = 1.
        self.base_factor = float(rng.lognormal(-sigma**2 / 2, sigma))
        self._drift = 0.0
        # Per-transfer constants and a block buffer of innovations —
        # next_factor is called once per data leg, so the scalar NumPy
        # dispatch would otherwise dominate it.  Past the draw above the
        # channel is its generator's only reader (blocks grow with use).
        self._half_sigma2 = profile.transfer_sigma[provider]**2 / 2
        self._rho = profile.drift_rho
        self._innovations = BufferedSampler(innovation, rng, block=64,
                                            owns_stream=True)

    def next_factor(self) -> float:
        """Sample the instantaneous speed multiplier for one transfer."""
        self._drift = self._rho * self._drift + self._innovations.sample()
        return max(0.05, self.base_factor * math.exp(self._drift - self._half_sigma2))


class NetworkFabric:
    """Samples transfer times for functions/VMs moving object data."""

    def __init__(self, rngs: RngFactory, injected: dict[str, int],
                 profile: NetworkProfile = DEFAULT_PROFILE):
        self.profile = profile
        self._rng = rngs.stream("network")
        # path_mbps/congestion_scale are pure functions of their
        # arguments (given the profile), and every transfer evaluates
        # both — memoize on the small set of distinct inputs.
        self._mbps_memo: dict[tuple, float] = {}
        self._congestion_memo: dict[tuple[str, int], tuple[float, float]] = {}
        self._startup_samplers: dict[str, BufferedSampler] = {}
        self._innovations: dict[str, Dist] = {}   # per provider
        # Vectorized block buffers: standard normals for the congestion
        # jitter (one per concurrent transfer leg) and child seeds for
        # per-instance channels (one per cold start).
        self._std_normal_buf: list[float] = []
        self._std_normal_idx = 0
        self._channel_seed_buf: list[int] = []
        self._channel_seed_idx = 0
        # Fault injection: None keeps transfers on the chaos-free path.
        self._chaos: ChaosConfig | None = None
        self._chaos_rng = None
        # Regional outage windows keyed by region: transfers touching
        # the region as any endpoint wait out the window.
        self._outages: dict[str, tuple[tuple[float, float], ...]] = {}
        #: Injected-fault counts (``chaos.INJECTED_KEYS``); the
        #: substrates of one Cloud share the dict.
        self.injected = injected
        #: Optional :class:`~repro.core.tracing.Tracer` receiving
        #: wan-stall / wan-blackout / wan-outage-wait events (only
        #: consulted on the chaos path; the clean path never checks it).
        self.tracer = None

    # -- fault injection --------------------------------------------------

    def set_chaos(self, chaos: ChaosConfig | None, rng) -> None:
        """Install (or clear) WAN fault injection.  The fabric is
        clockless: callers pass the transfer start to
        :meth:`chaos_penalty_s`."""
        self._chaos = chaos if chaos is not None and chaos.wan_enabled else None
        self._chaos_rng = ChaosDraws(rng) if rng is not None else None
        self._outages = ({} if self._chaos is None else {
            key: self._chaos.outage_windows("wan", key)
            for key, _start, _duration in self._chaos.wan_outages})

    def chaos_penalty_s(self, now: float, *region_keys: str) -> float:
        """Extra seconds a cross-region transfer starting ``now`` pays.

        A transfer that begins inside a global blackout window, or a
        regional outage window touching any of ``region_keys`` (the
        transfer's endpoints and executing region), waits for the
        window to close; independently it may hit a transient stall
        (routing flap, throttled NAT) with an exponential duration.
        Only called when a chaos config with WAN faults is installed.
        """
        chaos = self._chaos
        extra = 0.0
        for start, duration in chaos.wan_blackout_windows:
            if start <= now < start + duration:
                self.injected["wan_blackout_hits"] += 1
                if self.tracer is not None:
                    self.tracer.event("wan-blackout-wait", "net", None,
                                      _BLACKOUT_KEYS, (start + duration) - now)
                extra += (start + duration) - now
                break
        if self._outages and region_keys:
            # The transfer resumes once every touched region is back:
            # wait until the latest end among currently-active windows.
            until = max(outage_end(self._outages.get(key, ()), now)
                        for key in region_keys)
            if until > now:
                self.injected["wan_outage_hits"] += 1
                if self.tracer is not None:
                    self.tracer.event("wan-outage-wait", "net", None,
                                      _WAIT_KEYS, list(region_keys),
                                      until - now)
                extra += until - now
        if (chaos.wan_stall_prob
                and self._chaos_rng.random() < chaos.wan_stall_prob):
            self.injected["wan_stalls"] += 1
            stall = float(self._chaos_rng.exponential(chaos.wan_stall_mean_s))
            if self.tracer is not None:
                self.tracer.event("wan-stall", "net", None, _WAIT_KEYS,
                                  list(region_keys), stall)
            extra += stall
        return extra

    # -- deterministic mean bandwidths ----------------------------------

    def path_mbps(self, exec_region: Region, peer: Region, config: FunctionConfig,
                  upload: bool) -> float:
        """Mean bandwidth (Mbps) between a function and an object store.

        ``peer`` is the bucket's region; ``upload`` selects the PUT
        direction.  Intra-region access bypasses the WAN model.
        """
        memo_key = (exec_region.key, peer.key, config.memory_mb, config.vcpus,
                    upload)
        cached = self._mbps_memo.get(memo_key)
        if cached is not None:
            return cached
        p = self.profile
        provider = exec_region.provider
        scale = p.config_scale(provider, config)
        # Overrides are keyed by data-flow direction:
        # (exec provider, region bytes leave, region bytes enter).
        flow = ((exec_region.key, peer.key) if upload
                else (peer.key, exec_region.key))
        override = p.pair_overrides.get((provider, *flow))
        if override is not None:
            bw = override * scale
            result = bw * (p.upload_factor if upload else 1.0)
            self._mbps_memo[memo_key] = result
            return result
        if exec_region.key == peer.key:
            bw = p.intra_mbps[provider] * scale
            result = bw * (p.upload_factor if upload else 1.0)
            self._mbps_memo[memo_key] = result
            return result
        nic = p.nic_cap_mbps[provider] * scale
        if exec_region.continent == peer.continent:
            dist = (p.same_continent_factor
                    if exec_region.name != peer.name or exec_region.provider != peer.provider
                    else p.same_region_factor)
        else:
            dist = p.continent_factor[(exec_region.continent, peer.continent)]
        cross = 1.0 if exec_region.provider == peer.provider else p.cross_provider_factor
        bw = nic * p.platform_wan_factor[provider] * dist * cross
        result = bw * (p.upload_factor if upload else 1.0)
        self._mbps_memo[memo_key] = result
        return result

    # -- stochastic sampling ---------------------------------------------

    def open_channel(self, provider: str) -> InstanceChannel:
        """Create the network view for a newly started instance."""
        idx = self._channel_seed_idx
        if idx >= len(self._channel_seed_buf):
            self._channel_seed_buf = self._rng.integers(
                0, 2**63, size=64).tolist()
            idx = 0
        self._channel_seed_idx = idx + 1
        child = np.random.default_rng(self._channel_seed_buf[idx])
        innovation = self._innovations.get(provider)
        if innovation is None:
            # AR(1) innovations for the provider: signed, so no floor.
            p = self.profile
            innovation = self._innovations[provider] = normal(
                0.0, p.transfer_sigma[provider] * math.sqrt(
                    1 - p.drift_rho**2), floor=-math.inf)
        return InstanceChannel(provider, self.profile, child, innovation)

    def congestion_jitter(self, extra_sigma: float) -> float:
        """Mean-one lognormal jitter factor for a congested leg.

        Equals ``exp(N(-sigma^2/2, sigma))``; the standard normals
        behind it are drawn in blocks from the fabric stream.
        """
        idx = self._std_normal_idx
        if idx >= len(self._std_normal_buf):
            self._std_normal_buf = self._rng.standard_normal(128).tolist()
            idx = 0
        self._std_normal_idx = idx + 1
        return math.exp(extra_sigma * self._std_normal_buf[idx]
                        - extra_sigma**2 / 2)

    def sample_startup(self, provider: str) -> float:
        sampler = self._startup_samplers.get(provider)
        if sampler is None:
            sampler = BufferedSampler(self.profile.startup_s[provider],
                                      self._rng, block=128)
            self._startup_samplers[provider] = sampler
        return sampler.sample()

    def congestion_scale(self, provider: str, concurrency: int) -> tuple[float, float]:
        """(mean divisor, extra sigma) for ``concurrency`` parallel streams."""
        if concurrency <= 1:
            return 1.0, 0.0
        memo_key = (provider, concurrency)
        cached = self._congestion_memo.get(memo_key)
        if cached is not None:
            return cached
        p = self.profile
        divisor = 1.0 + p.congestion_alpha[provider] * (concurrency - 1) / 64.0
        extra = p.congestion_sigma[provider] * math.log2(concurrency)
        self._congestion_memo[memo_key] = (divisor, extra)
        return divisor, extra
