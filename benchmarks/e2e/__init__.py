"""End-to-end benchmark of the AReplica reproduction (see README.md).

Drives the system through its public APIs only; nothing under ``src/``
knows this package exists.  ``run.py`` is the entry point.
"""
