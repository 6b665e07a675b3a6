"""AReplica core: the paper's primary contribution.

Modules:

* :mod:`repro.core.config` — system configuration (SLO, percentile,
  part size, thresholds).
* :mod:`repro.core.model` — the distribution-aware performance model
  (§5.3) with Monte-Carlo and Gumbel (extreme-value) tail machinery.
* :mod:`repro.core.profiler` — offline profiler that fits the model's
  I/D/P/S/C/C' parameters from probe runs.
* :mod:`repro.core.planner` — SLO-compliant dynamic plan generation
  (Algorithm 3).
* :mod:`repro.core.partpool` — decentralized part-granularity
  scheduling over a shared KV pool (Algorithm 1), plus the "fair"
  static dispatch ablation.
* :mod:`repro.core.locks` — object-granularity replication lock
  (Algorithm 2).
* :mod:`repro.core.engine` — the variability-tolerant replication
  engine (§5.1) with optimistic validation (§5.2): wiring, routing and
  the decision path, composed with :mod:`repro.core.backlog` (parked
  tasks) and :mod:`repro.core.hedging` (straggler cloning) and driving
  the stateless data paths :mod:`repro.core.transfer` (single function,
  integrity) and :mod:`repro.core.distributed` (part pool, recovery).
* :mod:`repro.core.changelog` — changelog propagation (§5.4).
* :mod:`repro.core.batching` — SLO-bounded batching (Algorithm 4).
* :mod:`repro.core.logger` — runtime drift detection and model
  re-calibration (§4 "Logger").
* :mod:`repro.core.health` — per-substrate circuit breakers driving
  outage-aware degraded routing.
* :mod:`repro.core.repair` — anti-entropy scanner re-driving
  source/destination divergence.
* :mod:`repro.core.service` — the end-to-end AReplica service facade.
"""
