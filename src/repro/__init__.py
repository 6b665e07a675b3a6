"""AReplica — serverless replication of object storage across
multi-vendor clouds and regions (EuroSys '26 reproduction).

Public entry points:

* :mod:`repro.simcloud` — the multi-cloud simulation substrate.
* :mod:`repro.core` — the AReplica system: replication engine, strategy
  planner, distribution-aware performance model, changelog propagation,
  and SLO-bounded batching.
* :mod:`repro.baselines` — Skyplane, S3 Replication Time Control, and
  Azure object replication models.
* :mod:`repro.traces` — IBM-COS-like trace generation and replay.
* :mod:`repro.analysis` — statistics and table helpers.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
