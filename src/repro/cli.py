"""AReplica command-line interface.

Mirrors the published LambdaReplica CLI against the simulated clouds:

    areplica replicate --src aws:us-east-1 --dst azure:eastus --size 128MB
    areplica plan      --src aws:us-east-1 --dst gcp:us-east1 --size 1GB --slo 10
    areplica profile   --src aws:us-east-1 --dst azure:eastus
    areplica trace     --requests 5000 --slo 10
    areplica compare   --src aws:us-east-1 --dst aws:us-east-2 --size 1MB
    areplica chaos-soak --seed 0
    areplica lifecycle-drill --scenario evacuate --chaos --hedging --json
    areplica drill-all --seed 0

The drill subcommands are generated from the ``repro.drills.DRILLS``
roster.  All commands accept ``--seed`` for reproducibility.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from repro.core.config import ReplicaConfig
from repro.core.service import AReplicaService
from repro.drills import DRILLS, machine_report, run_drill
from repro.simcloud.cloud import build_default_cloud
from repro.simcloud.regions import get_region

__all__ = ["main", "parse_size"]

_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3, "TB": 1024**4}


def parse_size(text: str) -> int:
    """Parse '128MB', '1GB', '512', '8 MB' into a non-negative byte count."""
    s = text.strip().upper().replace(" ", "")
    unit = next((u for u in ("TB", "GB", "MB", "KB", "B") if s.endswith(u)),
                None)
    try:
        size = float(s[: -len(unit)]) * _UNITS[unit] if unit else int(s)
    except ValueError:
        size = math.nan
    if not 0 <= size < math.inf:
        raise argparse.ArgumentTypeError(
            f"cannot parse size {text!r} as a non-negative, finite byte "
            "count")
    return int(size)


def int_at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {minimum}, got {text!r}")
        return value
    return parse


def region_key(text: str) -> str:
    """An argparse type: a catalog region, as its ``provider:name`` key."""
    try:
        return get_region(text).key
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _build_service(args, slo: float = 0.0, tracing: bool = False):
    cloud = build_default_cloud(seed=args.seed)
    config = ReplicaConfig(slo_seconds=slo, percentile=args.percentile,
                           profile_samples=args.profile_samples,
                           tracing_enabled=tracing)
    service = AReplicaService(cloud, config)
    if tracing:     # for --trace-out, which exports the records
        service.tracer.keep_records()
    src = cloud.bucket(args.src, "src")
    dst = cloud.bucket(args.dst, "dst")
    rule = service.add_rule(src, dst)
    return cloud, service, src, dst, rule


def cmd_replicate(args) -> int:
    from repro.simcloud.objectstore import Blob

    cloud, service, src, dst, rule = _build_service(args, slo=args.slo)
    before = cloud.ledger.snapshot()
    src.put_object("cli-object", Blob.fresh(args.size), cloud.now)
    cloud.run()
    if not service.records:
        print("replication did not complete", file=sys.stderr)
        return 1
    record = service.records[-1]
    cost = before.delta(cloud.ledger.snapshot())
    print(f"replicated {args.size} bytes {args.src} -> {args.dst}")
    print(f"  delay:       {record.delay:.2f} s")
    print(f"  parallelism: {record.plan_n}")
    print(f"  executed at: {record.loc_key}")
    print(f"  cost:        ${cost.total:.6f}")
    for category, amount in sorted(cost.totals.items()):
        if amount > 0:
            print(f"    {category:<18} ${amount:.6f}")
    return 0


def cmd_plan(args) -> int:
    cloud, service, src, dst, rule = _build_service(args, slo=args.slo)
    size = args.size
    slo_remaining = args.slo if args.slo > 0 else float("-inf")
    plan = (service.planner.generate(size, args.src, args.dst, slo_remaining)
            if args.slo > 0 else service.planner.fastest(size, args.src, args.dst))
    print(f"plan for {size} bytes {args.src} -> {args.dst} "
          f"(SLO={args.slo or 'fastest'}, p{int(args.percentile * 100)}):")
    print(f"  parallelism: {plan.n}")
    print(f"  location:    {plan.loc_key}{' (inline)' if plan.inline else ''}")
    print(f"  predicted:   {plan.predicted_s:.2f} s "
          f"({'compliant' if plan.compliant else 'NOT compliant'})")
    print("\ncandidates:")
    for n in service.config.parallelism_ladder():
        if n > service.planner._max_useful_parallelism(size):
            break
        for loc in (args.src, args.dst):
            path = (loc, args.src, args.dst)
            if not service.model.has_path(path):
                continue
            inline = service.planner._is_inline(n, loc, args.src, size)
            t = service.model.predict_percentile(path, size, n,
                                                 args.percentile, inline=inline)
            print(f"  n={n:<4} loc={loc:<22} predicted={t:8.2f} s")
    return 0


def cmd_profile(args) -> int:
    cloud, service, src, dst, rule = _build_service(args)
    for loc in (args.src, args.dst):
        path = (loc, args.src, args.dst)
        if not service.model.has_path(path):
            continue
        lp = service.model.loc_params[loc]
        pp = service.model.path_params[path]
        print(f"path loc={loc} src={args.src} dst={args.dst}:")
        print(f"  I  (invoke)        {lp.invoke.mean * 1e3:7.1f} ± {lp.invoke.std * 1e3:.1f} ms")
        print(f"  D  (startup)       {lp.startup.mean:7.3f} ± {lp.startup.std:.3f} s")
        print(f"  S  (client ready)  {pp.client_startup.mean:7.3f} ± {pp.client_startup.std:.3f} s")
        print(f"  C  (per chunk)     {pp.chunk.mean:7.3f} ± {pp.chunk.std:.3f} s")
        print(f"  C' (distributed)   {pp.chunk_distributed.mean:7.3f} ± {pp.chunk_distributed.std:.3f} s")
    return 0


def _print_json(report: dict) -> None:
    import json

    print(json.dumps(report, indent=2, sort_keys=True, default=str))


def cmd_trace(args) -> int:
    from repro.traces.ibm_cos import IbmCosTraceGenerator
    from repro.traces.replay import TraceReplayer

    cloud, service, src, dst, rule = _build_service(
        args, slo=args.slo, tracing=args.trace_out is not None)
    trace = IbmCosTraceGenerator(seed=args.seed).busy_hour(
        total_requests=args.requests)
    if not args.json:
        print(f"replaying {sum(len(b) for b in trace)} requests over one hour "
              f"({args.src} -> {args.dst}, SLO={args.slo or 'fastest'}) ...")
    stats = TraceReplayer(cloud, src).replay_all(trace)
    extra = {}
    if args.trace_out is not None:
        service.tracer.export_chrome(args.trace_out)
        extra = {
            "trace_out": args.trace_out,
            "trace_spans": len(service.tracer.spans),
            "trace_events": len(service.tracer.events),
            "delay_breakdown": service.tracer.delay_breakdown(),
        }
    if args.json:
        _print_json({**machine_report(service),
                     "requests": stats.requests,
                     "bytes_written": stats.bytes_written, **extra})
        return 0
    delays = np.asarray(service.delays())
    print(f"  puts={stats.puts} deletes={stats.deletes} "
          f"bytes={stats.bytes_written / 1e9:.2f} GB")
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99),
                     ("p99.99", 0.9999)):
        print(f"  {label:<7} replication delay: {np.quantile(delays, q):8.2f} s")
    print(f"  total cost: ${cloud.ledger.total():.4f}")
    if args.trace_out is not None:
        print(f"\nper-phase delay breakdown "
              f"(Chrome trace written to {args.trace_out}):")
        print(service.tracer.render_breakdown())
    return 0


def cmd_audit(args) -> int:
    """Replay a workload, then run the consistency auditor on it."""
    from repro.core.audit import ReplicationAuditor
    from repro.traces.ibm_cos import IbmCosTraceGenerator
    from repro.traces.replay import TraceReplayer

    cloud, service, src, dst, rule = _build_service(args, slo=args.slo)
    trace = IbmCosTraceGenerator(seed=args.seed).busy_hour(
        total_requests=args.requests)
    stats = TraceReplayer(cloud, src).replay_all(trace)
    report = ReplicationAuditor(service).audit()
    print(f"replayed {stats.requests} requests "
          f"({stats.bytes_written / 1e9:.2f} GB); auditing ...")
    print(report.render())
    summary = service.summary()
    print(f"measured {summary['replicated_events']} events, "
          f"p99 delay {summary['delay_p99_s']:.1f}s, "
          f"total cost ${summary['total_cost_usd']:.4f}")
    return 0 if report.clean else 1


def cmd_drill(args) -> int:
    """Run the roster entry a drill subcommand names; exit 1 unless it
    passes."""
    options = vars(args).copy()
    spec = options.pop("variants")[options.pop("scenario", None)]
    del options["command"]
    as_json = options.pop("json")
    run = run_drill(spec, **options)
    if as_json:
        _print_json(run.report)
    else:
        print(run.render())
    return 0 if run.report["pass"] else 1


def cmd_drill_all(args) -> int:
    """Run every drill at one seed, each in its own freshly-seeded
    simulation at its roster defaults, and fail on any non-PASS: the
    standing regression harness for every recovery path."""
    drills = []
    reports = []
    for name, spec in DRILLS.items():
        if not args.json:
            print(f"drill-all: running {name} (seed {args.seed}) ...",
                  file=sys.stderr)
        # A drill that crashes is a FAIL for that scenario — never a
        # pass by omission, and never a traceback that aborts the
        # remaining drills (the aggregate exit code must reflect
        # *every* scenario's verdict).
        try:
            report = run_drill(spec, seed=args.seed).report
        except Exception as exc:  # noqa: BLE001 - drill isolation barrier
            print(f"drill-all: {name} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            report = {"scenario": name, "seed": args.seed, "pass": False,
                      "error": f"{type(exc).__name__}: {exc}"}
        drills.append({"scenario": report.get("scenario", name),
                       "seed": report.get("seed", args.seed),
                       "pass": bool(report.get("pass", False))})
        reports.append(report)
    all_pass = all(d["pass"] for d in drills)
    if args.json:
        _print_json({"seed": args.seed, "pass": all_pass,
                     "drills": drills, "reports": reports})
        return 0 if all_pass else 1
    print(f"{'scenario':<24} {'seed':>5} {'result':>8}")
    for d in drills:
        print(f"{d['scenario']:<24} {d['seed']:>5} "
              f"{'PASS' if d['pass'] else 'FAIL':>8}")
    print("RESULT: " + ("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


def cmd_regions(args) -> int:
    """List the region catalog and the egress price matrix."""
    from repro.simcloud.pricing import PriceBook
    from repro.simcloud.regions import REGIONS, get_region

    prices = PriceBook()
    keys = sorted(REGIONS)
    print(f"{len(keys)} regions:")
    for key in keys:
        r = get_region(key)
        print(f"  {key:<24} ({r.continent.upper()}, "
              f"{r.lat:.1f}, {r.lon:.1f})")
    if not args.egress:
        return 0
    print("\negress $/GB (row = source, col = destination):")
    short = [k.split(":", 1)[1][:12] for k in keys]
    print(f"{'':<24}" + "".join(f"{s:>13}" for s in short))
    for src_key in keys:
        row = f"{src_key:<24}"
        for dst_key in keys:
            rate = prices.egress_per_gb(get_region(src_key),
                                        get_region(dst_key))
            row += f"{rate:>13.3f}"
        print(row)
    return 0


def cmd_cost(args) -> int:
    """Analytic monthly cost projection for a synthetic workload."""
    from repro.analysis.costs import ReplicationCostModel
    from repro.traces.ibm_cos import OP_PUT, IbmCosTraceGenerator

    gen = IbmCosTraceGenerator(seed=args.seed,
                               mean_rps=args.requests_per_day / 86_400.0)
    trace = gen.generate(86_400.0)
    sizes = [s for b in trace for s in b.sizes[b.ops == OP_PUT].tolist()]
    model = ReplicationCostModel()
    src_provider = args.src.split(":")[0] if ":" in args.src else ""
    dst_provider = args.dst.split(":")[0] if ":" in args.dst else ""
    systems = ["areplica", "skyplane"]
    if src_provider == dst_provider == "aws":
        systems.append("s3rtc")
    elif src_provider == dst_provider == "azure":
        systems.append("azrep")
    print(f"projected 30-day replication cost, {args.src} -> {args.dst}")
    print(f"  workload: ~{len(sizes)} PUTs/day, "
          f"{sum(sizes) / 1e9:.2f} GB/day")
    print(f"  {'system':<10} {'egress':>9} {'compute':>9} {'other':>9} "
          f"{'total':>10}")
    for system in systems:
        est = model.workload_monthly(args.src, args.dst, sizes, system,
                                     days_observed=1.0)
        other = est.requests + est.kv + est.service_fee + est.storage
        print(f"  {system:<10} {est.egress:>9.2f} {est.compute:>9.2f} "
              f"{other:>9.2f} {est.total:>10.2f}")
    return 0


def cmd_compare(args) -> int:
    from repro.baselines.skyplane import SkyplaneReplicator
    from repro.baselines.s3rtc import S3RTCReplicator
    from repro.baselines.azrep import AzureObjectReplicator
    from repro.simcloud.objectstore import Blob

    cloud, service, src, dst, rule = _build_service(args)
    before = cloud.ledger.snapshot()
    src.put_object("cmp", Blob.fresh(args.size), cloud.now)
    cloud.run()
    ours = service.records[-1]
    our_cost = before.delta(cloud.ledger.snapshot()).total
    rows = [("AReplica", ours.delay, our_cost)]

    sky_cloud = build_default_cloud(seed=args.seed)
    sky_src = sky_cloud.bucket(args.src, "src")
    sky_dst = sky_cloud.bucket(args.dst, "dst")
    sky = SkyplaneReplicator(sky_cloud, sky_src, sky_dst)
    sky_src.put_object("cmp", Blob.fresh(args.size), sky_cloud.now, notify=False)
    sky_before = sky_cloud.ledger.snapshot()
    record = sky.replicate_once("cmp")
    rows.append(("Skyplane", record.delay,
                 sky_before.delta(sky_cloud.ledger.snapshot()).total))

    src_provider = args.src.split(":")[0] if ":" in args.src else None
    dst_provider = args.dst.split(":")[0] if ":" in args.dst else None
    proprietary: Optional[tuple] = None
    if src_provider == dst_provider == "aws":
        proprietary = ("S3 RTC", S3RTCReplicator)
    elif src_provider == dst_provider == "azure":
        proprietary = ("AZ Rep", AzureObjectReplicator)
    if proprietary is not None:
        name, cls = proprietary
        p_cloud = build_default_cloud(seed=args.seed)
        p_src = p_cloud.bucket(args.src, "src", versioning=True)
        p_dst = p_cloud.bucket(args.dst, "dst", versioning=True)
        rep = cls(p_cloud, p_src, p_dst)
        p_src.put_object("cmp", Blob.fresh(args.size), p_cloud.now, notify=False)
        p_before = p_cloud.ledger.snapshot()
        rec = rep.replicate_once("cmp")
        rows.append((name, rec.delay,
                     p_before.delta(p_cloud.ledger.snapshot()).total))

    print(f"{args.size} bytes, {args.src} -> {args.dst}:")
    print(f"  {'system':<10} {'delay (s)':>10} {'cost ($)':>12}")
    for name, delay, cost in rows:
        print(f"  {name:<10} {delay:>10.2f} {cost:>12.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="areplica",
        description="AReplica: serverless cross-cloud object replication "
                    "(EuroSys '26 reproduction, simulated clouds)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_size=True):
        p.add_argument("--src", type=region_key, default="aws:us-east-1",
                       help="source region (provider:region)")
        p.add_argument("--dst", type=region_key, default="azure:eastus",
                       help="destination region (provider:region)")
        if with_size:
            p.add_argument("--size", type=parse_size, default=parse_size("1MB"),
                           help="object size, e.g. 128MB")
        p.add_argument("--slo", type=float, default=0.0,
                       help="replication SLO in seconds (0 = fastest plan)")
        p.add_argument("--percentile", type=float, default=0.99)
        p.add_argument("--seed", type=int_at_least(0), default=0)
        p.add_argument("--profile-samples", type=int_at_least(2), default=8)

    common(sub.add_parser("replicate", help="replicate one object and report"))
    common(sub.add_parser("plan", help="show the SLO-compliant plan"))
    common(sub.add_parser("profile", help="show fitted model parameters"),
           with_size=False)
    trace = sub.add_parser("trace", help="replay a synthetic IBM COS hour")
    common(trace, with_size=False)
    trace.add_argument("--requests", type=int_at_least(1), default=5000)
    trace.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of text")
    trace.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a causal trace and write Chrome "
                            "trace-event JSON here (also prints the "
                            "per-phase N/I/D/P/S/C delay breakdown)")
    common(sub.add_parser("compare", help="compare against the baselines"))
    cost = sub.add_parser("cost", help="project monthly replication cost")
    common(cost, with_size=False)
    cost.add_argument("--requests-per-day", type=float, default=100_000.0)
    regions = sub.add_parser("regions", help="list regions and egress prices")
    regions.add_argument("--egress", action="store_true",
                         help="print the full egress price matrix")
    audit = sub.add_parser("audit",
                           help="replay a workload and audit consistency")
    common(audit, with_size=False)
    audit.add_argument("--requests", type=int_at_least(1), default=2000)
    rides = {"chaos": "layer a mild probabilistic chaos storm over the "
                      "drill's own disturbance",
             "hedging": "enable speculative straggler cloning"}
    commands: dict[str, dict] = {}
    for spec in DRILLS.values():
        # The three planned operations share one subcommand.
        commands.setdefault("lifecycle-drill" if spec.operation
                            else spec.name, {})[spec.operation] = spec
    for command, variants in commands.items():
        spec = next(iter(variants.values()))
        p = sub.add_parser(command, help=spec.help)
        p.set_defaults(variants=variants)
        common(p, with_size=False)
        if None not in variants:
            p.add_argument("--scenario", required=True,
                           choices=list(variants),
                           help="which planned operation to execute")
        p.add_argument("--requests", type=int_at_least(1), default=None,
                       help=f"workload size (default {spec.requests})")
        for flag in spec.rides:
            p.add_argument(f"--{flag}", action="store_true",
                           help=rides[flag])
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of "
                            "text")
    drill_all = sub.add_parser(
        "drill-all",
        help="run every drill in the roster at one seed; fail on any "
             "non-PASS")
    drill_all.add_argument("--seed", type=int_at_least(0), default=0)
    drill_all.add_argument("--json", action="store_true",
                           help="emit the aggregated machine-readable "
                                "report instead of text")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "percentile" in args:
        # The service's own validation, reported as a usage error.
        try:
            ReplicaConfig(slo_seconds=args.slo, percentile=args.percentile)
        except ValueError as exc:
            parser.error(f"invalid configuration: {exc}")
    handlers = {
        "replicate": cmd_replicate,
        "plan": cmd_plan,
        "profile": cmd_profile,
        "trace": cmd_trace,
        "compare": cmd_compare,
        "cost": cmd_cost,
        "regions": cmd_regions,
        "audit": cmd_audit,
        "drill-all": cmd_drill_all,
    }
    # Every other subcommand was generated from the drill roster.
    return handlers.get(args.command, cmd_drill)(args)


if __name__ == "__main__":
    sys.exit(main())
