"""Offline performance profiler (§4).

Onboarding a new platform/region pair runs a set of probe tasks that
fit the performance model's parameter distributions:

* ``I(loc)`` — invocation API latency, timed from the invoke request to
  its acceptance;
* ``D(loc)`` — instance readiness delay, timed from acceptance to the
  handler's first statement.  Probes force cold starts (fresh function
  deployments), so on platforms with a periodic instance scheduler the
  samples naturally include the postponement ``P`` at a random phase;
* ``S(src, dst, loc)`` — client startup overhead, estimated as the
  excess duration of an instance's first chunk over its later chunks;
* ``C(src, dst, loc)`` — per-chunk transfer time for a single-function
  replication;
* ``C'(src, dst, loc)`` — per-chunk time under distributed replication,
  including the two KV accesses per part of Algorithm 1.

Each sample uses a *fresh* cold instance so that the fitted
distributions capture inter-instance variability — the property the
distribution-aware model exists to track.  Parameters are "easy and
affordable to profile" (§5.3): the default is 10 probes of a few
8 MB chunks each per path.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.model import LocParams, NormalParam, PathKey, PathParams, PerformanceModel
from repro.simcloud.cloud import Cloud
from repro.simcloud.objectstore import Blob, Bucket

__all__ = ["PerformanceProfiler"]

_SINGLE_CHUNKS = 4    # chunks timed per probe in single-function mode
_DIST_CHUNKS = 3      # chunks timed per probe in distributed mode


def _bump(name: str):
    """An ``update_item`` closure counting in field ``name``: a probe's
    stand-in for one of a part's two KV accesses (claim, completion)."""
    def bump(item):
        item = item or {}
        item[name] = item.get(name, 0) + 1
        return item, item[name]
    return bump


class PerformanceProfiler:
    """Fits model parameters by probing the (simulated) clouds."""

    def __init__(self, cloud: Cloud, model: PerformanceModel, samples: int = 10):
        if samples < 2:
            raise ValueError("need at least 2 probe samples to fit a std")
        self.cloud = cloud
        self.model = model
        self.samples = samples
        self._probe_seq = itertools.count(1)
        self.profiled_paths: list[PathKey] = []

    # -- public API ---------------------------------------------------------

    def ensure_path(self, loc_key: str, src: Bucket, dst: Bucket) -> PathKey:
        """Profile (loc, src, dst) if the model lacks it; returns the key."""
        key: PathKey = (loc_key, src.region.key, dst.region.key)
        if self.model.has_path(key):
            return key
        self.profile_path(loc_key, src, dst)
        return key

    def profile_path(self, loc_key: str, src: Bucket, dst: Bucket) -> PathKey:
        """Run the probe workload and install fitted parameters."""
        key: PathKey = (loc_key, src.region.key, dst.region.key)
        results = self._run_probes(loc_key, src, dst)
        self._fit(key, results)
        self.profiled_paths.append(key)
        return key

    # -- probe execution ---------------------------------------------------------

    def _run_probes(self, loc_key: str, src_bucket: Bucket,
                    dst_bucket: Bucket) -> list[dict]:
        faas = self.cloud.faas(loc_key)
        kv = self.cloud.kv_table(loc_key, "areplica-profile")
        chunk = self.model.chunk_size
        probe_size = chunk * max(_SINGLE_CHUNKS, _DIST_CHUNKS)
        probe_key = f"probe/{next(self._probe_seq)}"
        # Probes run against dedicated scratch buckets in the same
        # regions: identical network behaviour, but probe traffic never
        # feeds the notification bus (it would otherwise trigger any
        # replication rule listening on the production buckets).
        src = self.cloud.bucket(src_bucket.region.key, "__areplica-profile__")
        dst = self.cloud.bucket(dst_bucket.region.key, "__areplica-profile__")
        src.put_object(probe_key, Blob.fresh(probe_size, "probe"), self.cloud.now,
                       notify=False)
        results: list[dict] = []

        def make_handler(uid: str):
            def handler(ctx, payload):
                ready = ctx.now
                single_marks = [ctx.now]
                for i in range(_SINGLE_CHUNKS):
                    blob, _ = yield from ctx.get_object(src, probe_key,
                                                        i * chunk, chunk)
                    yield from ctx.put_object(dst, f"{probe_key}/{uid}/s{i}", blob)
                    single_marks.append(ctx.now)
                dist_marks = [ctx.now]
                for i in range(_DIST_CHUNKS):
                    yield kv.update_item(f"probe:{uid}", _bump("claims"))
                    blob, _ = yield from ctx.get_object(src, probe_key,
                                                        i * chunk, chunk)
                    yield from ctx.put_object(dst, f"{probe_key}/{uid}/d{i}", blob)
                    yield kv.update_item(f"probe:{uid}", _bump("completions"))
                    dist_marks.append(ctx.now)
                return {"ready": ready, "single": single_marks, "dist": dist_marks}

            return handler

        def driver():
            for i in range(self.samples):
                uid = f"{next(self._probe_seq)}"
                name = f"__probe__{uid}"
                # Fresh deployment => guaranteed cold start => a fresh
                # instance with its own network speed factor.
                faas.deploy(name, make_handler(uid))
                requested = self.cloud.now
                accepted_fut, invocation = faas.invoke(name, None)
                yield accepted_fut
                accepted = self.cloud.now
                timings = yield invocation
                timings["I"] = accepted - requested
                timings["D"] = timings["ready"] - accepted
                results.append(timings)
            # Clean up probe outputs so experiment buckets stay pristine.
            for k in list(dst.keys()):
                if k.startswith(probe_key):
                    dst.delete_object(k, self.cloud.now, notify=False)
            src.delete_object(probe_key, self.cloud.now, notify=False)

        self.cloud.sim.run_process(driver(), name=f"profile:{loc_key}")
        return results

    # -- fitting -----------------------------------------------------------------

    def _fit(self, key: PathKey, results: list[dict]) -> None:
        loc_key = key[0]
        i_samples = [r["I"] for r in results]
        d_samples = [r["D"] for r in results]
        c_samples: list[float] = []
        s_samples: list[float] = []
        cp_samples: list[float] = []
        for r in results:
            single_durations = np.diff(r["single"])
            # Later chunks are steady-state C; the first chunk carries
            # the client-startup overhead S on top.
            steady = single_durations[1:]
            c_samples.extend(steady.tolist())
            s_samples.append(max(0.0, float(single_durations[0] - steady.mean())))
            cp_samples.extend(np.diff(r["dist"]).tolist())
        if loc_key not in self.model.loc_params:
            self.model.set_loc_params(
                loc_key,
                LocParams(
                    invoke=NormalParam.from_samples(i_samples),
                    startup=NormalParam.from_samples(d_samples),
                    # D probes include the scheduler postponement at a
                    # random phase, so P is folded into D.
                    postponement=NormalParam.zero(),
                ),
            )
        self.model.set_path_params(
            key,
            PathParams(
                client_startup=NormalParam.from_samples(s_samples),
                chunk=NormalParam.from_samples(c_samples),
                chunk_distributed=NormalParam.from_samples(cp_samples),
            ),
        )
