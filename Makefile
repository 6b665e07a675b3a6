# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src), matching the CI tier-1 invocation.

PY ?= python
export PYTHONPATH := src

.PHONY: test trace-tests chaos-tests scrub-tests hedge-tests lifecycle-tests tenant-tests autopilot-tests protocol-tests footprint lifecycle-drill drill-all examples e2e-digests e2e-rss e2e-smoke-digests work-counts trace-share trace-digests census storm-census paper coverage

## tier-1: the full default suite
test:
	$(PY) -m pytest -x -q

## just the causal-tracing / trace-oracle suites
trace-tests:
	$(PY) -m pytest -q -m trace

## just the fault-injection and outage drills
chaos-tests:
	$(PY) -m pytest -q -m "chaos or outage"

## just the silent-corruption / quarantine / deep-scrub suites
scrub-tests:
	$(PY) -m pytest -q -m scrub

## just the speculative straggler-cloning (hedging) suites
hedge-tests:
	$(PY) -m pytest -q -m hedge

## just the planned-operations (evacuation / rolling restart / switchover)
## suites
lifecycle-tests:
	$(PY) -m pytest -q -m lifecycle

## planned-disruption drills: region evacuation, rolling engine restart,
## and orchestration switchover under live load, proved safe by the
## trace oracle, audit, and deep scrub (machine-readable)
lifecycle-drill:
	$(PY) -m repro.cli lifecycle-drill --scenario evacuate --seed 0 --json
	$(PY) -m repro.cli lifecycle-drill --scenario rolling --seed 0 --json
	$(PY) -m repro.cli lifecycle-drill --scenario switchover --seed 0 --json

## just the multi-tenant isolation / fair-share / sharding suites
tenant-tests:
	$(PY) -m pytest -q -m tenant

## what one mostly idle tenant and one replicated PUT retain: KiB traced
## per tenant after one and after eight PUTs, KiB per 4 KiB PUT through
## one rule, the same with the in-program Tracer on, without and with
## its records kept (keep_records(): what its spans and events cost per
## PUT), KiB the performance model keeps per Monte-Carlo key looked up
## once (a checkpoint, not a sample row), and the ten largest owners of
## each; it also checks that 10 000 tenant-ledger admissions retain
## under 1 KiB (tests/core/test_footprint.py)
footprint:
	$(PY) -m pytest -q -s tests/core/test_footprint.py

## just the closed-loop SLO controller (autopilot) suites
autopilot-tests:
	$(PY) -m pytest -q -m autopilot

## just the protocol model checks (~1 s): the real lock and done-marker
## closures against a dict-backed table, every interleaving of a few
## attempts, source writes and faults, and the part pool's closures
## (create, claim, completion, quarantine, abort, the finalize, janitor
## and reclaim leases) against the same table (tests/protocol/)
protocol-tests:
	$(PY) -m pytest -q -m protocol

## every drill the CLI ships, one seed, one shared report schema;
## exits non-zero if any drill reports pass=false
drill-all:
	$(PY) -m repro.cli drill-all --seed 0

## run every script under examples/ (~5 s); fails on the first non-zero
## exit, so a renamed or removed API the examples use cannot go unseen
examples:
	@for f in examples/*.py; do \
		echo "== $$f"; \
		$(PY) $$f > /dev/null || { echo "FAILED: $$f"; exit 1; }; \
	done

## "behaviour held" in one command: the seed-0 sim_digest of each
## benchmark workload (1 s units, untraced) and of the traced 5 s storm.
## A change that claims no simulated outcome moved prints the same five
## lines as its parent (~2 min).
e2e-digests:
	@for w in busy_hour_small bulk_large tenant_fanout storm_churn; do \
		printf '%-16s trace=0 ' $$w; \
		$(PY) benchmarks/e2e/run.py --workload $$w --seed 0 --seconds 1 --trace 0 \
			| grep -o 'sim_digest [0-9a-f]*' || exit 1; \
	done
	@printf '%-16s trace=1 ' storm_churn
	@$(PY) benchmarks/e2e/run.py --workload storm_churn --seed 0 --seconds 5 --trace 1 \
		| grep -o 'sim_digest [0-9a-f]*'

## peak memory in one command (~1 min): the seed-0 host_peak_rss_mb of
## each benchmark workload (1 s units, untraced), one line each.  One
## run per workload is a before/after glance, not the ten-pair protocol
## a claim needs, so CI does not run it.
e2e-rss:
	@for w in busy_hour_small bulk_large tenant_fanout storm_churn; do \
		printf '%-16s trace=0 ' $$w; \
		$(PY) benchmarks/e2e/run.py --workload $$w --seed 0 --seconds 1 --trace 0 \
			| awk '$$1 == "host_peak_rss_mb" { print $$1, $$2, $$3; ok = 1 } END { exit !ok }' \
			|| exit 1; \
	done

## the ~15 s CI cousin of e2e-digests: the digests of the four --smoke
## units plus the traced storm smoke, diffed against the committed
## tests/golden/e2e_smoke_digests.txt.  A speed-only change must leave
## every line identical; a declared behaviour change regenerates it.
e2e-smoke-digests:
	@{ for w in busy_hour_small bulk_large tenant_fanout storm_churn; do \
		printf '%-16s trace=0 ' $$w; \
		$(PY) benchmarks/e2e/run.py --workload $$w --smoke --trace 0 \
			| grep -o 'sim_digest [0-9a-f]*' || exit 1; \
	done; \
	printf '%-16s trace=1 ' storm_churn; \
	$(PY) benchmarks/e2e/run.py --workload storm_churn --smoke --trace 1 \
		| grep -o 'sim_digest [0-9a-f]*'; } \
		| diff tests/golden/e2e_smoke_digests.txt - && echo "smoke digests match"

## per-request work counts (~10 s; CI diffs them too): for each
## workload's seed-0 traced smoke unit, every count/req, count/kreq,
## count and frac metric of its report except the time-based
## trace.coverage_frac, one line per workload, diffed against the
## committed tests/golden/work_counts.txt.  They repeat exactly, so a
## perf change states its claim as a count delta; a count that moves
## without one is a regression to explain.
work-counts:
	@$(PY) -m tests.work_counts | diff tests/golden/work_counts.txt - \
		&& echo "work counts match"

## the in-program tracer's share of the storm_churn unit (~4 min; not in
## CI): at seeds 11-20, the benchmark's unit once with the Tracer on and
## once with tracing_enabled=False, each in a process of its own, the
## order alternating; per seed each side's nominal CPU us/req and peak
## RSS and whether their simulated outcomes agree, then the median and
## quartiles of the difference.  Pass other seeds as
## `python -m tests.trace_share 11 12 ...`.
trace-share:
	@$(PY) -m tests.trace_share

## what the drills and the trace checker report (~25 s; CI diffs it
## against tests/golden/trace_digests.txt):
## per drill at seeds 0-2, the sha256 of its --json trace_findings plus
## trace_checked ("trace") and of the whole --json report ("report"),
## then the findings and checked counts of the seed-0 storm_churn unit.
## A change that claims the checker's findings held prints the same
## trace hashes as its parent; one that claims no drill outcome moved
## prints the same lines throughout.
trace-digests:
	$(PY) -m tests.trace_digests

## which drills FAIL at which seeds (~4 min; not in CI): every drill at
## seeds 0-31, one line per FAIL with its first finding or failed gate,
## diffed against the committed tests/golden/census.txt.  A new line is
## a new finding; a removed line is a fix.  Either way the PR that moves
## it regenerates the file (python -m tests.census > tests/golden/census.txt)
## and names the line in CHANGES.md.
census:
	@$(PY) -m tests.census | diff tests/golden/census.txt - && echo "census matches"

## which storm units FAIL at which sub-seeds (~5-8 min on 2 vCPUs; not
## in CI): the benchmark's 12 000-request storm_churn unit at sub-seeds
## 200-279 under the storm without duplicates (orchestrator crashes and
## WAN stalls back in, hedging off), one line per FAIL with its first
## finding, diffed against the committed tests/golden/storm_census.txt.
## A new line is a new finding; a removed line is a fix.  The PR that
## moves it regenerates the file (python -m tests.storm_census >
## tests/golden/storm_census.txt) and names the line in CHANGES.md.
storm-census:
	@$(PY) -m tests.storm_census | diff tests/golden/storm_census.txt - \
		&& echo "storm census matches"

## the reproduction gate (~1 min): regenerate every paper table/figure
## under benchmarks/ (the e2e benchmark has its own entry points) and
## fail if any assertion fails or a committed results/ file changed.
## Needs pytest-benchmark and scipy on top of the tier-1 dependencies.
paper:
	$(PY) -m pytest benchmarks --ignore=benchmarks/e2e -q
	git diff --exit-code results/

## any single drill of the roster (repro.drills.DRILLS), machine-readable:
## make corruption-drill | hedge-drill | tenant-drill | autopilot-drill ...
%-drill:
	$(PY) -m repro.cli $@ --seed 0 --json

## line coverage over src/repro; requires the dev extras (pytest-cov).
## Gated so environments without pytest-cov fail with a message instead
## of an unknown-option error from pytest.
coverage:
	@$(PY) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; run: pip install -e .[dev]"; exit 1; }
	$(PY) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=60
