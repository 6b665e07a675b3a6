"""Host-time attribution from outside the program.

A :class:`SpanRecorder` wraps the public functions of each layer at
class level (never editing ``src/``), records one span per call —
layer, name, start, end, parent (the top of the span stack) and the
request key where a payload carries one — and bumps a count at the same
boundary.  A layer is the module a function lives in (``kvstore``,
``faas``, ``engine`` ...); a layer's **self time** is its spans'
duration minus the part its child spans cover.  The root span is
``Simulator.run``, so whatever is not inside a wrapped call is kernel
self time.

Generator functions (FaaS handlers, ``FunctionContext`` data-path calls,
lock and part-pool operations) are wrapped with a proxy generator that
times every ``send``/``throw``: the time a generator spends suspended
belongs to nobody.  Callbacks handed to the kernel or to a substrate
(``call_at``, ``schedule_call``, ``spawn``, ``subscribe``, ``connect``,
``deploy``, ``submit``) are wrapped when they are registered, under the
layer of the module that defined them, so the kernel's own share is
what is left.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["SpanRecorder", "timed_generator"]

# Slot fields: one accumulator per (layer, function name).
_LAYER, _NAME, _CALLS, _RESUMES, _INCLUSIVE_S, _SELF_S = range(6)
# Open-frame fields.
_SLOT, _START, _CHILD_S, _ID, _REQ, _PARENT = range(6)
#: Only the first ``_KEEP_SPANS`` spans are kept for the Chrome trace (a
#: contiguous window from the start of the timed region, which bounds
#: the traced run's memory); the accumulators cover every span.
_KEEP_SPANS = 200_000


@functools.lru_cache(maxsize=None)
def _basename(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _layer_of(obj: Any) -> str:
    """Module basename of a callable, class or generator (the layer)."""
    code = getattr(obj, "gi_code", None)
    if code is not None:
        return os.path.splitext(os.path.basename(code.co_filename))[0]
    return _basename(getattr(obj, "__module__", None) or "sim")


def _is_generator_function(fn: Callable) -> bool:
    # inspect.isgeneratorfunction is too slow for callbacks wrapped at
    # every registration; bound methods forward __code__.
    code = getattr(fn, "__code__", None)
    return code is not None and bool(code.co_flags & inspect.CO_GENERATOR)


def timed_generator(rec: "SpanRecorder", gen, slot: list,
                    req: Optional[str] = None):
    """Stand in for ``gen`` and time each of its resumes as one span.

    A real generator (the engine tells operations apart by
    ``type(op) is GeneratorType``) that forwards ``send``/``throw``/
    ``close`` and returns the inner ``StopIteration`` value unchanged,
    so the kernel's ``Process`` and a caller's ``yield from`` drive it
    like ``gen`` itself.  Like ``gen``, it does nothing until first
    resumed.
    """
    value, exc = None, None
    while True:
        frame = rec.open(slot, req)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(frame, resume=True)
        try:
            value, exc = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # noqa: BLE001 - forwarded to ``gen``
            exc = err


class SpanRecorder:
    """In-memory span store plus per-function accumulators."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        #: (layer, name) -> [layer, name, calls, resumes, inclusive s, self s]
        self.slots: dict[tuple[str, str], list] = {}
        self._installed: list[tuple[type, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        for slot in self.slots.values():
            slot[_CALLS:] = [0, 0, 0.0, 0.0]
        #: (id, parent id, layer, name, start, end, request key)
        self.spans: list[tuple] = []
        self.span_count = 0
        self._next_id = 0

    # -- span bookkeeping ----------------------------------------------

    def slot(self, layer: str, name: str) -> list:
        slot = self.slots.get((layer, name))
        if slot is None:
            slot = self.slots[(layer, name)] = [layer, name, 0, 0, 0.0, 0.0]
        return slot

    def open(self, slot: list, req: Optional[str] = None) -> list:
        stack = self.stack
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent_id = parent[_ID]
            if req is None:
                req = parent[_REQ]
        self._next_id = span_id = self._next_id + 1
        frame = [slot, 0.0, 0.0, span_id, req, parent_id]
        stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def close(self, frame: list, resume: bool = False) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        slot = frame[_SLOT]
        duration = end - frame[_START]
        slot[_INCLUSIVE_S] += duration
        slot[_SELF_S] += duration - frame[_CHILD_S]
        slot[_RESUMES if resume else _CALLS] += 1
        if stack:
            stack[-1][_CHILD_S] += duration
        if self.span_count < _KEEP_SPANS:
            self.spans.append((frame[_ID], frame[_PARENT], slot[_LAYER],
                               slot[_NAME], frame[_START], end, frame[_REQ]))
        self.span_count += 1

    # -- wrapping ------------------------------------------------------

    def proxy(self, gen, req: Optional[str] = None):
        """Time ``gen``'s resumes under its own module's layer
        (idempotent: a proxy is returned as is)."""
        if gen.gi_code is timed_generator.__code__:
            return gen
        slot = self.slot(_layer_of(gen), gen.__name__)
        slot[_CALLS] += 1
        return timed_generator(self, gen, slot, req)

    def wrap(self, fn: Callable, layer: Optional[str] = None,
             name: Optional[str] = None,
             req_of: Optional[Callable[..., Optional[str]]] = None) -> Callable:
        """Wrap ``fn`` so each call (or each resume, for a generator
        function) is a span; ``req_of(*args)`` names the request."""
        slot = self.slot(layer or _layer_of(fn),
                         name or getattr(fn, "__name__", "call"))
        if _is_generator_function(fn):
            def gen_wrapper(*args, **kwargs):
                slot[_CALLS] += 1
                return timed_generator(
                    self, fn(*args, **kwargs), slot,
                    req_of(*args) if req_of is not None else None)
            return gen_wrapper
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            frame = open_(slot, req_of(*args) if req_of is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)
        return wrapper

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        original = cls.__dict__[name]
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__name__}.{name} is not a plain function")
        self._installed.append((cls, name, original))
        setattr(cls, name, replacement)

    def _patch_callback_arg(self, cls: type, name: str, index: int,
                            req_of: Optional[Callable] = None) -> None:
        """Patch ``cls.name`` so the callable (or generator) it receives
        as positional argument ``index`` (0 = first after self) is
        wrapped under its own module's layer before registration."""
        original = cls.__dict__[name]
        pos = index + 1

        def registering(*args, **kwargs):
            if len(args) <= pos:        # passed by keyword: leave it bare
                return original(*args, **kwargs)
            target = args[pos]
            if hasattr(target, "send"):
                target = self.proxy(target)
            else:
                target = self.wrap(target, req_of=req_of)
            return original(*args[:pos], target, *args[pos + 1:], **kwargs)

        self._patch(cls, name, registering)

    def install(self) -> None:
        """Install every wrapper (class level; undo with :meth:`uninstall`)."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        try:
            for cls, patterns in _layer_targets().items():
                layer = _layer_of(cls)
                for name, fn in list(vars(cls).items()):
                    if (not name.startswith("_") and inspect.isfunction(fn)
                            and any(fnmatch.fnmatchcase(name, p)
                                    for p in patterns)):
                        self._patch(cls, name, self.wrap(fn, layer, name))
            for cls, name, index, req_of in _callback_targets():
                self._patch_callback_arg(cls, name, index, req_of)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            cls, name, original = self._installed.pop()
            setattr(cls, name, original)

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting -----------------------------------------------------

    def _sum(self, field: int, layer: Optional[str], patterns=()) -> float:
        return sum(s[field] for s in self.slots.values()
                   if (layer is None or s[_LAYER] == layer)
                   and (not patterns or any(
                       fnmatch.fnmatchcase(s[_NAME], p) for p in patterns)))

    def self_s(self, layer: Optional[str] = None) -> float:
        """Self seconds of ``layer`` (of every layer when None)."""
        return self._sum(_SELF_S, layer)

    def calls(self, layer: str, *patterns: str) -> int:
        """Calls into ``layer`` whose function name matches a pattern
        (all of the layer's calls when none is given)."""
        return self._sum(_CALLS, layer, patterns)

    def resumes(self, layer: str) -> int:
        return self._sum(_RESUMES, layer)

    def inclusive_s(self, layer: str, name: str) -> float:
        return self._sum(_INCLUSIVE_S, layer, (name,))

    def export_chrome(self, path: str) -> None:
        """Write the kept spans as Chrome-trace JSON (chrome://tracing,
        Perfetto): one complete ("X") event per span on one thread, so
        nesting on screen is the call nesting."""
        origin = min((s[4] for s in self.spans), default=0.0)
        events = [{
            "name": f"{layer}.{name}", "cat": layer, "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3), "pid": 1, "tid": 1,
            "args": {"id": span_id, "parent": parent, "req": req},
        } for span_id, parent, layer, name, start, end, req in self.spans]
        events.sort(key=lambda e: e["ts"])
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_total": self.span_count,
                                     "spans_kept": len(self.spans)}}, fh)


def _event_key(event) -> Optional[str]:
    return getattr(event, "key", None)


def _payload_key(_ctx, payload) -> Optional[str]:
    return payload.get("key") if isinstance(payload, dict) else None


def _layer_targets() -> dict[type, tuple[str, ...]]:
    """Class -> patterns of the public functions that bound its layer."""
    from repro.core.engine import ReplicationEngine
    from repro.core.health import HealthTracker
    from repro.core.locks import ReplicationLockManager
    from repro.core.model import PerformanceModel
    from repro.core.partpool import PartPool
    from repro.core.planner import StrategyPlanner
    from repro.core.profiler import PerformanceProfiler
    from repro.core.sharding import ShardRouter
    from repro.core.tracing import Tracer
    from repro.simcloud.cost import CostLedger
    from repro.simcloud.faas import FaasRegion, FunctionContext
    from repro.simcloud.kvstore import KvTable
    from repro.simcloud.network import NetworkFabric
    from repro.simcloud.objectstore import Bucket
    from repro.simcloud.sim import Simulator

    return {
        Simulator: ("run",),
        FaasRegion: ("invoke", "invoke_and_forget", "redrive_dead_letters"),
        FunctionContext: ("*",),
        KvTable: ("get_item", "put_item", "delete_item", "conditional_put",
                  "put_if_absent", "update_item", "increment"),
        Bucket: ("put_object", "get_object", "head", "delete_object",
                 "copy_object", "*multipart*", "upload_part"),
        NetworkFabric: ("sample_transfer_seconds", "path_mbps",
                        "open_channel", "sample_startup"),
        CostLedger: ("charge",),
        HealthTracker: ("record*", "available"),
        ReplicationEngine: ("handle_event",),
        StrategyPlanner: ("generate", "fastest"),
        PerformanceModel: ("predict_*",),
        PartPool: ("*",),
        ReplicationLockManager: ("lock", "verify", "release", "unlock"),
        ShardRouter: ("route",),
        Tracer: ("span", "event"),
        PerformanceProfiler: ("ensure_path",),
    }


def _callback_targets() -> list[tuple[type, str, int, Optional[Callable]]]:
    """(class, function, index of its callback argument, request-key getter)."""
    from repro.core.scheduler import FairShareScheduler
    from repro.simcloud.faas import FaasRegion
    from repro.simcloud.notifications import NotificationBus
    from repro.simcloud.objectstore import Bucket
    from repro.simcloud.sim import Simulator

    return [
        (Simulator, "call_at", 1, None),
        (Simulator, "schedule_call", 1, None),
        (Simulator, "spawn", 0, None),
        (Bucket, "subscribe", 0, _event_key),
        (NotificationBus, "connect", 1, _event_key),
        (FaasRegion, "deploy", 1, _payload_key),
        (FairShareScheduler, "submit", 1, None),
    ]
