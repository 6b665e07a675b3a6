"""Multi-cloud simulation substrate.

This package simulates the pieces of AWS, Azure, and GCP that AReplica
depends on: object storage with event notifications, FaaS platforms,
serverless key-value stores, durable workflow timers, VMs, a wide-area
network fabric with asymmetric and variable bandwidth, and a metered
price book.  All components run on a deterministic discrete-event
simulation kernel (:mod:`repro.simcloud.sim`), so experiments are
reproducible under a seed.
"""
