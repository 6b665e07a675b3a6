"""Workload traces: the synthetic IBM-COS-like generator and replayer.

The paper evaluates on the IBM Cloud Object Storage traces (SNIA,
~1.6 billion requests over one week).  Those traces are licensed and
not redistributable, so :mod:`repro.traces.ibm_cos` generates synthetic
traces calibrated to the statistics the paper publishes: ~80 % of PUT
requests at or below 1 MB with >99.99 % below 1 GB (Fig 2), sharply
fluctuating per-minute write throughput (Fig 3), and a busy one-hour
segment with ~0.99 M PUT/DELETE requests used for the end-to-end replay
(Fig 23).
"""
