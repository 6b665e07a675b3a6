"""Contract test: the engine's stats counters are a closed, tested set.

``ReplicationEngine.stats`` is the observable surface most tests (and
the CLI's chaos/outage reports) assert against.  This contract keeps it
honest in both directions:

* a counter added to the engine without updating the documented set
  below fails ``test_engine_stats_keys_are_the_documented_set``;
* a documented counter that no test ever references fails
  ``test_every_stats_counter_is_exercised_by_some_test`` — every key
  must be asserted somewhere in the suite.

The multi-tenant control plane has its own counter surface — the
per-tenant operational stats (``TENANT_STAT_KEYS`` in
``core/service.py``, mutated by the service's admission router and the
fair-share scheduler) — held to the same two-directional contract.
"""

import re
from pathlib import Path

import repro.core.autopilot as autopilot_mod
import repro.core.engine as engine_mod
import repro.core.scheduler as scheduler_mod
import repro.core.service as service_mod

#: Modules under ``core/`` whose ``stats`` is some *other* dict: the
#: tenant and autopilot surfaces (held to their own contracts below)
#: and the batcher's and client's private counters.
OTHER_STATS_OWNERS = {"autopilot.py", "scheduler.py", "service.py",
                      "batching.py", "client.py"}
#: Every other ``core/`` module may bump ``ReplicationEngine.stats`` —
#: the engine, the components and data paths split out of it, the
#: lifecycle layer — so all of them are scraped: a counter bumped from
#: a new module cannot escape ``EXPECTED_KEYS``.
STATS_SOURCES = tuple(
    p for p in sorted(Path(engine_mod.__file__).parent.glob("*.py"))
    if p.name not in OTHER_STATS_OWNERS)
TESTS_DIR = Path(__file__).resolve().parents[1]

#: Every counter the engine maintains, whether eagerly initialised or
#: created on first use via ``stats.get``/setdefault-style access.
EXPECTED_KEYS = frozenset({
    "tasks", "inline", "single", "distributed",
    "changelog_applied", "changelog_fallback",
    "aborted", "deferred", "skipped_done", "deletes", "retriggered",
    "lock_lost", "orphaned_uploads",
    "kv_retries", "kv_retry_exhausted", "kv_retry_deadline",
    "parked", "drained", "probes", "failover", "backlog_kv_failed",
    "content_skipped", "quota_clamped",
    "recovered_parts", "recovered_finalize",
    "corrupt_detected", "retransfers", "quarantined",
    "finalize_verify_failed",
    "hedges", "hedge_wins", "hedge_losses", "hedge_cancelled",
    "cordons", "drained_parts", "migrated_tasks", "checkpoints",
    "switchovers",
})

_KEY_RE = re.compile(r"""stats(?:\.get\(|\[)\s*["']([a-z_]+)["']""")


def _keys_in_engine_source():
    return frozenset(key for src in STATS_SOURCES
                     for key in _KEY_RE.findall(src.read_text()))


def test_engine_stats_keys_are_the_documented_set():
    assert _keys_in_engine_source() == EXPECTED_KEYS
    assert set(engine_mod._STAT_KEYS) <= EXPECTED_KEYS


def test_every_stats_counter_is_exercised_by_some_test():
    me = Path(__file__).resolve()
    corpus = "\n".join(
        p.read_text() for p in sorted(TESTS_DIR.rglob("test_*.py"))
        if p.resolve() != me)
    missing = [k for k in sorted(EXPECTED_KEYS)
               if f'"{k}"' not in corpus and f"'{k}'" not in corpus]
    assert not missing, f"stats counters no test references: {missing}"


# -- per-tenant counters (TENANT_STAT_KEYS) -----------------------------------

#: The modules that mutate per-tenant stats dicts: the service's
#: admission/routing layer and the fair-share scheduler.
TENANT_STATS_SOURCES = (Path(service_mod.__file__),
                        Path(scheduler_mod.__file__))

EXPECTED_TENANT_KEYS = frozenset({
    "admitted", "deferred", "rejected", "fairshare_waits",
    "shard_migrations",
})


def test_tenant_stat_keys_match_the_documented_set():
    """The module constant is the single source of truth the service
    initialises tenant counters from; keep this contract's copy and the
    code agreeing."""
    assert frozenset(service_mod.TENANT_STAT_KEYS) == EXPECTED_TENANT_KEYS


def test_tenant_sources_touch_only_documented_keys():
    """Every ``stats[...]``/``stats.get(...)`` access in the tenant
    layers names either a documented tenant counter or a documented
    engine counter (the service also reads engine stats when it
    aggregates summaries) — no untracked counter surface."""
    scraped = frozenset(key for src in TENANT_STATS_SOURCES
                        for key in _KEY_RE.findall(src.read_text()))
    undocumented = scraped - EXPECTED_TENANT_KEYS - EXPECTED_KEYS
    assert not undocumented, f"untracked stats keys: {sorted(undocumented)}"
    # And every tenant counter is genuinely mutated in the sources.
    assert EXPECTED_TENANT_KEYS <= scraped


def test_every_tenant_counter_is_exercised_by_some_test():
    me = Path(__file__).resolve()
    corpus = "\n".join(
        p.read_text() for p in sorted(TESTS_DIR.rglob("test_*.py"))
        if p.resolve() != me)
    missing = [k for k in sorted(EXPECTED_TENANT_KEYS)
               if f'"{k}"' not in corpus and f"'{k}'" not in corpus]
    assert not missing, f"tenant counters no test references: {missing}"


# -- autopilot counters (AUTOPILOT_STAT_KEYS) ---------------------------------

#: The only module that mutates the autopilot's operational counters:
#: the controller itself (the service just holds a reference).
AUTOPILOT_STATS_SOURCES = (Path(autopilot_mod.__file__),)

EXPECTED_AUTOPILOT_KEYS = frozenset({
    "actuations", "clamps", "cooldown_skips", "cordon_holds",
    "settle_time_s",
})


def test_autopilot_stat_keys_match_the_documented_set():
    """``AUTOPILOT_STAT_KEYS`` is the single source of truth both the
    controller and the autopilot initialise their stats dicts from;
    keep this contract's copy and the code agreeing."""
    assert frozenset(autopilot_mod.AUTOPILOT_STAT_KEYS) == \
        EXPECTED_AUTOPILOT_KEYS


def test_autopilot_source_touches_only_documented_keys():
    """Every ``stats[...]``/``stats.get(...)`` access in the autopilot
    names a documented counter — no untracked counter surface — and
    every documented counter is genuinely mutated there."""
    scraped = frozenset(key for src in AUTOPILOT_STATS_SOURCES
                        for key in _KEY_RE.findall(src.read_text()))
    undocumented = scraped - EXPECTED_AUTOPILOT_KEYS
    assert not undocumented, f"untracked stats keys: {sorted(undocumented)}"
    assert EXPECTED_AUTOPILOT_KEYS <= scraped


def test_every_autopilot_counter_is_exercised_by_some_test():
    me = Path(__file__).resolve()
    corpus = "\n".join(
        p.read_text() for p in sorted(TESTS_DIR.rglob("test_*.py"))
        if p.resolve() != me)
    missing = [k for k in sorted(EXPECTED_AUTOPILOT_KEYS)
               if f'"{k}"' not in corpus and f"'{k}'" not in corpus]
    assert not missing, f"autopilot counters no test references: {missing}"
