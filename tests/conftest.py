"""Tier-1 Hypothesis settings: every run draws the same examples.

Derandomized draws and no example database make a property test's
examples a function of the test alone, so a tier-1 failure reproduces
everywhere it runs.  A draw found failing is pinned as an explicit
``@example(...)`` — an ``.xfail`` one while its fix is pending.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
