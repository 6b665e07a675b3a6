"""Self-tests of the benchmark harness (not of the program under test).

Plain functions, so they run both under pytest
(``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``) and from
``run.py --selftest`` without it.
"""

from __future__ import annotations

import json
import time
import traceback
from pathlib import Path
from types import GeneratorType

from benchmarks.e2e import harness, run, tracing
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _recorder():
    clock = FakeClock()
    return tracing.SpanRecorder(clock=clock), clock


def test_self_time_of_nested_and_sibling_spans():
    rec, clock = _recorder()
    a, b, c = (rec.slot(layer, "f") for layer in "abc")
    outer = rec.open(a)             # a: 0..10
    clock.now = 1.0
    first = rec.open(b)             # b: 1..4, holding c: 2..3
    clock.now = 2.0
    inner = rec.open(c)
    clock.now = 3.0
    rec.close(inner)
    clock.now = 4.0
    rec.close(first)
    clock.now = 6.0
    second = rec.open(b)            # b again, a sibling: 6..9
    clock.now = 9.0
    rec.close(second)
    clock.now = 10.0
    rec.close(outer)
    assert rec.self_s("a") == 10.0 - 3.0 - 3.0
    assert rec.self_s("b") == (3.0 - 1.0) + 3.0
    assert rec.self_s("c") == 1.0
    assert rec.self_s() == 10.0     # self times partition the root span
    assert rec.calls("b") == 2 and rec.inclusive_s("b", "f") == 6.0
    parents = {span[0]: span[1] for span in rec.spans}
    assert parents[inner[tracing._ID]] == first[tracing._ID]
    assert parents[second[tracing._ID]] == outer[tracing._ID]
    assert parents[outer[tracing._ID]] == -1


def test_spans_inherit_the_request_key():
    rec, _ = _recorder()
    outer = rec.open(rec.slot("a", "f"), "key-1")
    inner = rec.open(rec.slot("b", "g"))
    rec.close(inner)
    rec.close(outer)
    assert [span[6] for span in rec.spans] == ["key-1", "key-1"]


def test_generator_proxy_is_transparent():
    log = []

    def body():
        try:
            got = yield "first"
            log.append(got)
            try:
                yield "second"
            except KeyError as err:
                log.append(err)
            yield "third"
        finally:
            log.append("closed")
        return "unreachable"

    def finishing():
        got = yield 1
        return got * 2

    rec, clock = _recorder()
    proxy = rec.proxy(body())
    assert type(proxy) is GeneratorType
    assert rec.proxy(proxy) is proxy            # never double-wrapped
    assert proxy.send(None) == "first"
    assert proxy.send("hello") == "second"
    boom = KeyError("boom")
    assert proxy.throw(boom) == "third"
    proxy.close()
    assert log == ["hello", boom, "closed"]
    assert rec.resumes("test_harness") == 3 and rec.calls("test_harness") == 1

    def driver():
        return (yield from rec.proxy(finishing()))

    d = driver()
    assert d.send(None) == 1
    try:
        d.send(21)
    except StopIteration as stop:
        assert stop.value == 42
    else:
        raise AssertionError("generator did not finish")
    assert not rec.stack


def test_wrapped_generator_function_times_resumes_not_suspension():
    rec, clock = _recorder()

    def work():
        clock.now += 1.0
        yield
        clock.now += 2.0

    wrapped = rec.wrap(work, "layer", "work")
    gen = wrapped()
    next(gen)
    clock.now += 100.0              # suspended: belongs to nobody
    assert list(gen) == []
    assert rec.self_s("layer") == 3.0
    assert rec.calls("layer") == 1 and rec.resumes("layer") == 2


def test_tail_quantile_needs_enough_samples_beyond():
    need = harness._TAIL_MIN_BEYOND
    assert harness.pick_tail_q(1) == 0.9        # the floor
    assert harness.pick_tail_q(need * 100 - 1) == 0.9
    assert harness.pick_tail_q(need * 100) == 0.99
    assert harness.pick_tail_q(need * 1000 - 1) == 0.99
    assert harness.pick_tail_q(need * 1000) == 0.999
    assert harness.pick_tail_q(need * 10_000) == 0.9999


def test_speed_sampler_rescales_time_to_nominal_speed():
    nominal = harness.NOMINAL_LOOPS_PER_S
    clock = harness.SpeedSampler()
    # (spin start, spin end, cpu at start, cpu at end, loops/s): one
    # second at nominal speed, then one second on a machine half as fast.
    clock.readings = [(0.0, 0.1, 0.0, 0.1, nominal),
                      (1.1, 1.2, 1.0, 1.1, nominal),
                      (2.2, 2.3, 1.9, 2.0, nominal / 2),
                      (3.3, 3.4, 2.8, 2.9, nominal / 2)]
    assert abs(clock.wall_s - (1.0 + 1.0 + 0.5)) < 1e-9    # faster reading wins
    assert abs(clock.cpu_s - (0.9 + 0.8 + 0.4)) < 1e-9
    assert abs(clock.raw_wall_s - 3.2) < 1e-9
    assert clock.mloops_per_s == 0.75 * nominal / 1e6


def test_speed_sampler_reads_while_the_region_runs_and_cleans_up():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with harness.SpeedSampler() as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(clock.readings) >= 4
    assert 0.0 < clock.cpu_s and 0.0 < clock.wall_s
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_workload_generators_are_pure_functions_of_the_seed():
    for wl in WORKLOADS.values():
        n = wl.smoke_requests
        a, b, c = wl.generate(3, n), wl.generate(3, n), wl.generate(4, n)
        assert a.rows() == b.rows(), wl.name
        assert a.time_scale == b.time_scale, wl.name
        assert a.rows() != c.rows(), wl.name
        assert len(a.rows()) == n, wl.name


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.E2E_UNITS
    wl = WORKLOADS["busy_hour_small"]
    traced = run.traced_run(wl, 0, 200)
    emitted = {name: unit for name, (_, unit) in traced.metrics.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == emitted


def test_smoke_of_every_workload_passes_the_gate_untraced_and_traced():
    targets = [(cls, name, cls.__dict__[name])
               for cls in tracing._layer_targets()
               for name in vars(cls) if not name.startswith("_")]
    targets += [(cls, name, cls.__dict__[name])
                for cls, name, _, _ in tracing._callback_targets()]
    for wl in WORKLOADS.values():
        t0 = time.perf_counter()
        timed = run.timed_run(wl, 0, wl.smoke_requests, seconds=0.0)
        traced = run.traced_run(wl, 0, wl.smoke_requests)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, (wl.name, elapsed)
        for r in (timed, traced):
            assert r.correct and r.repeatable, wl.name
            assert sum(u.failed for u in r.units) == 0, wl.name
        assert len(timed.units) == run.REPLICAS
        # The traced replica saw what the untraced replica 0 saw.
        assert traced.units[1].digest == timed.units[0].digest, wl.name
        assert traced.metrics["trace.coverage_frac"][0] >= 0.95, wl.name
        tracing_self = traced.metrics["tracing.self_us_per_req"][0]
        assert (tracing_self > 0) == (wl.name == "storm_churn"), wl.name
        # Only storm_churn has a hedged variant, and hedges fire in it.
        hedges = traced.metrics["engine.hedges_per_kreq"][0]
        assert (hedges > 0) == (wl.name == "storm_churn"), wl.name
        # Wrappers are fully uninstalled after a traced run.
        for cls, name, original in targets:
            assert cls.__dict__[name] is original, (cls.__name__, name)


def test_chrome_trace_export():
    import tempfile
    rec, clock = _recorder()
    frame = rec.open(rec.slot("a", "f"), "k")
    clock.now = 0.5
    rec.close(frame)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        rec.export_chrome(str(path))
        doc = json.loads(path.read_text())
    (event,) = doc["traceEvents"]
    assert event["name"] == "a.f" and event["ph"] == "X"
    assert event["dur"] == 500000.0 and event["args"]["req"] == "k"


def test_compare_verdicts():
    from benchmarks.e2e import suite
    import contextlib
    import io
    import tempfile

    def doc(reqs, digest="d"):
        metrics = {m["name"]: {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 3}
                   for m in SPEC["end_to_end"]}
        metrics["host_reqs_per_s"] = {"median": reqs, "q1": reqs * 0.99,
                                      "q3": reqs * 1.01, "n": 3}
        return {"workloads": {"w": {"end_to_end": metrics,
                                    "sim_digest": digest}}}

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "host_reqs_per_s")
    with tempfile.TemporaryDirectory() as tmp:
        def verdicts(new_reqs):
            paths = []
            for i, d in enumerate((doc(1000.0), doc(new_reqs))):
                paths.append(str(Path(tmp) / f"{i}.json"))
                Path(paths[-1]).write_text(json.dumps(d))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = suite.compare(SPEC, *paths)
            row = next(line for line in out.getvalue().splitlines()
                       if " host_reqs_per_s " in line)
            return code, row.split()[-1]

        assert verdicts(1000.0) == (0, "same")
        assert verdicts(1000.0 * (1 - bound) - 20) == (1, "worse")
        assert verdicts(1000.0 * 1.05) == (0, "better")


def test_suite_rejects_a_run_that_died():
    import sys
    import tempfile
    from benchmarks.e2e import suite

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for code in ("raise SystemExit(3)",
                     # Died after a report was written (or left by an
                     # earlier run): still not a result.
                     f"open({str(report)!r}, 'w').write('{{}}'); "
                     "raise SystemExit(3)"):
            try:
                suite._one_run([sys.executable, "-c", code], "w", 0, 1.0, 0,
                               False, None, str(report))
            except RuntimeError:
                pass
            else:
                raise AssertionError(f"accepted: {code}")


def run_all() -> int:
    """Run every test above without pytest; exit status for the CLI."""
    failures = 0
    for name, fn in sorted(globals().items()):
        if not name.startswith("test_") or not callable(fn):
            continue
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name} ({time.perf_counter() - t0:.1f} s)")
    print(f"{failures} failure(s)")
    return 1 if failures else 0
