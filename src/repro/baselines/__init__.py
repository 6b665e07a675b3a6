"""Baseline replication systems the paper compares against (§8).

* :mod:`repro.baselines.skyplane` — the open-source, VM-based
  cross-cloud replicator (Skyplane v0.3.2's workflow envelope).
* :mod:`repro.baselines.s3rtc` — AWS S3 Replication Time Control
  (proprietary, AWS→AWS only, 15-minute SLO).
* :mod:`repro.baselines.azrep` — Azure object replication (proprietary,
  Azure→Azure only, no SLO).
"""
