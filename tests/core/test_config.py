"""Tests for ReplicaConfig."""

import dataclasses
import inspect

import pytest

from repro.core.config import (DEFAULT_PART_SIZE, DISTRIBUTED_THRESHOLD,
                               LOCAL_THRESHOLD, MB, ReplicaConfig,
                               TenantConfig)
from repro.core.engine import ReplicationEngine
from repro.core.health import HealthTracker
from repro.core.logger import RuntimeLogger
from repro.core.scheduler import FairShareScheduler
from repro.core.sharding import HashRing, ShardRouter
from repro.simcloud.chaos import ChaosConfig
from repro.traces.ibm_cos import IbmCosTraceGenerator


def test_defaults_match_paper():
    cfg = ReplicaConfig()
    assert cfg.part_size == 8 * MB          # §5.1 part-size finding
    assert cfg.percentile == 0.99
    assert not cfg.slo_enabled              # SLO=0: fastest plan (§8.1)
    assert LOCAL_THRESHOLD <= DISTRIBUTED_THRESHOLD


def test_slo_enabled_flag():
    assert ReplicaConfig(slo_seconds=30).slo_enabled
    assert not ReplicaConfig(slo_seconds=0).slo_enabled


def test_parallelism_ladder_is_exponential():
    cfg = ReplicaConfig(max_parallelism=16)
    assert cfg.parallelism_ladder() == [1, 2, 4, 8, 16]


def test_parallelism_ladder_non_power_of_two_cap():
    cfg = ReplicaConfig(max_parallelism=100)
    assert cfg.parallelism_ladder() == [1, 2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slo_seconds": -1},
        {"percentile": 0.4},
        {"percentile": 1.0},
        {"part_size": 0},
        {"max_parallelism": 0},
        {"outage_catchup_concurrency": 0},
        {"retry_deadline_s": 0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        ReplicaConfig(**kwargs)


def test_default_part_size_constant():
    assert DEFAULT_PART_SIZE == 8 * 1024 * 1024


#: Every settable knob, by name.  A new one is a reviewed diff here:
#: add a field only when something outside the tests sets it.
REPLICA_CONFIG_FIELDS = {
    "slo_seconds", "percentile", "part_size", "max_parallelism",
    "enable_changelog", "enable_batching", "batching_epsilon", "mc_samples",
    "gumbel_threshold", "profile_samples", "retry_deadline_s",
    "outage_catchup_concurrency", "tracing_enabled", "hedging_enabled",
    "hedge_deadline_quantile", "max_clones_per_part",
    "enable_autopilot",
}
TENANT_CONFIG_FIELDS = {
    "tenant_id", "buckets", "slo_target_s", "budget_usd", "budget_window_s",
    "exhausted_policy", "weight",
}
#: The fault schedule: a new fault source (scripted faults, say) is a
#: reviewed diff here, not a field slipped into the config.
CHAOS_CONFIG_FIELDS = {
    "crash_prob", "crash_mean_delay_s", "crash_scope",
    "notif_drop_prob", "notif_dup_prob", "notif_reorder_prob",
    "notif_redelivery_s", "notif_dup_lag_s", "notif_reorder_spread_s",
    "kv_reject_prob", "kv_delay_prob", "kv_delay_mean_s",
    "wan_stall_prob", "wan_stall_mean_s", "wan_blackout_windows",
    "corrupt_get_prob", "corrupt_put_prob", "corrupt_at_rest_prob",
    "corrupt_truncate_prob", "corrupt_wrong_etag_prob",
    "faas_outages", "kv_outages", "wan_outages",
}


@pytest.mark.parametrize("cls, expected", [
    (ReplicaConfig, REPLICA_CONFIG_FIELDS),
    (TenantConfig, TENANT_CONFIG_FIELDS),
    (ChaosConfig, CHAOS_CONFIG_FIELDS),
])
def test_config_field_census(cls, expected):
    assert {f.name for f in dataclasses.fields(cls)} == expected


#: Constructor parameters, by name.  Tuning that no program sets is a
#: module constant beside its reader, so a new parameter is a reviewed
#: diff here too.
CONSTRUCTOR_PARAMETERS = {
    HealthTracker: ("clock", "schedule"),
    FairShareScheduler: ("max_concurrent",),
    HashRing: ("shards",),
    ShardRouter: ("shards",),
    RuntimeLogger: ("model",),
    ReplicationEngine: ("cloud", "config", "src_bucket", "dst_bucket",
                        "planner", "changelog", "recorder", "rule_id",
                        "scheduling", "health", "scheduler", "tenant"),
    IbmCosTraceGenerator: ("seed", "mean_rps", "tenants", "keys_per_tenant",
                           "delete_fraction", "update_fraction",
                           "burst_rate_per_hour", "burst_multiplier",
                           "minute_sigma"),
}


@pytest.mark.parametrize("cls", list(CONSTRUCTOR_PARAMETERS),
                         ids=lambda cls: cls.__name__)
def test_constructor_parameter_census(cls):
    assert (tuple(inspect.signature(cls).parameters)
            == CONSTRUCTOR_PARAMETERS[cls])
