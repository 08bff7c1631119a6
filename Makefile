# Developer entry points.  `make ci` is what the CI job runs: simlint, the
# tier-1 test suite (once plain, once under the runtime determinism
# sanitizer), the end-to-end benchmark's self-tests, a scenario-spec
# schema check + dry-build, the observability self-check (spans/metrics/
# exporters cross-verified), plus a quick-mode perf smoke that fails on
# regressions beyond the tolerance against the committed BENCH_PERF.json
# baseline.
#
# `make lint-stats` adds the suppression-debt report (waiver counts by
# rule and by file, stale directives, layering exemptions).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-stats test test-sanitize bench-selftest test-fleet test-control scenarios obs-check bench perf-check perf-write perf-ab profile ci

# Whole-program determinism & architecture analysis (rules SL001-SL016)
# over src/ (strict profile) and tests/ + benchmarks/ (relaxed profile:
# bare asserts and wall clock allowed; layering and frozen-spec rules
# still enforced).
LINT_PATHS := src/ tests/ benchmarks/
lint:
	$(PYTHON) -m repro.devtools.simlint $(LINT_PATHS)

# Same run plus the suppression-debt report on stdout.
lint-stats:
	$(PYTHON) -m repro.devtools.simlint --stats $(LINT_PATHS)

test:
	$(PYTHON) -m pytest -x -q

# The same tier-1 suite with the runtime determinism sanitizer observing
# every Simulator; results must be identical (the sanitizer never perturbs),
# and a DeterminismWarning that no test declares fails the lane.
test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		-W error::repro.simkernel.sanitizer.DeterminismWarning

# Self-tests of the end-to-end benchmark under perfbench/.  They pin the
# benchmark's contract with src/ (entry points, keywords, the sweep and
# fleet checks), so a rename there fails here rather than in a bench run.
bench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

# The fleet tier lane: sharded-vs-serial determinism, fluid-vs-exact
# cross-validation within the documented tolerances, epoch protocol, the
# one-pass window queries against their oracle, quiet fluid ticks that
# reuse the last solve against the per-tick solve they replaced, the
# coordinator's shared tick rows against the per-client tick log they
# replaced (fixed cases and a property over random tick scripts), and the
# cluster service index against the scan it replaced (plus its O(1)
# down-host cost).
test-fleet:
	$(PYTHON) -m pytest -x -q tests/fleet tests/workloads/test_fluid.py tests/workloads/test_window_queries.py tests/workloads/test_fluid_reuse.py tests/cluster/test_service_index.py

# The control-plane lane: detector hysteresis/grid semantics, planner
# edge cases (partial plans, never exceptions), executor audit, the
# open-loop triggers (the periodic schedule and the rolling/migration
# campaigns) that feed the same executor, and the closed loop's
# plain == sanitized determinism pin, plus the aging story and
# watchdog tests.
test-control:
	$(PYTHON) -m pytest -x -q tests/control tests/aging

# Schema-check every committed spec file, then dry-build each of them
# plus every registered scenario, so spec/schema drift fails CI fast.
# Fleet specs validate through their own CLI (dry-build at 1000 hosts
# is a real run, so validation stops at the schema + geometry checks).
scenarios:
	$(PYTHON) -m repro.scenario validate $(filter-out examples/fleet_%,$(wildcard examples/*.toml))
	$(PYTHON) -m repro.scenario build $(filter-out examples/fleet_%,$(wildcard examples/*.toml)) $$($(PYTHON) -m repro.scenario list | awk '{print $$1}')
	$(PYTHON) -m repro.fleet validate examples/fleet_*.toml

# End-to-end observability self-check, one command in two stages.
# Single run: drive an instrumented warm reboot, then cross-verify the
# reboot's critical path (a query over span records) against the
# strategy's own report, the Perfetto export against strict JSON, and
# the Prometheus text format against its parser.  Fleet: run a two-shard
# fleet with a policy and an SLO, check that the merged telemetry bundle
# round-trips bit-identically and its Prometheus page matches the fleet
# report at zero deviation, evaluate the SLO, and reconstruct every
# control-plane decision's causal chain (trigger -> cycle -> action ->
# mechanism -> outage) from the merged bundle alone.  Leaves all
# artifacts under build/obs/ (CI uploads them; open the traces at
# ui.perfetto.dev).
obs-check:
	$(PYTHON) -m repro.obs check --out build/obs

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Kernel micro-benchmarks + fleet matrix + sub-second experiments,
# guarded against the committed baseline.  Seconds, not a full sweep.
# Kernel throughputs are recorded per scheduler backend and fleet wall
# clocks per hosts x mode cell (BENCH_PERF.json schema 5; the
# "reference" kernel cell is the binary-heap test oracle); most gates
# compare against the committed
# baseline and are therefore hardware-relative: on a machine slower
# than the baseline's, widen the gate for one run with
# `REPRO_PERF_TOLERANCE=1.6 make perf-check` (or --tolerance); if the
# drift is real and permanent, rebaseline instead — run `make perf-write`
# on quiet hardware and commit the rewritten BENCH_PERF.json.  The
# batched-vs-oracle events/sec speedup gate and the disabled-telemetry
# overhead gate are the exceptions: both compare cells measured seconds
# apart in the same run on the same machine, so no tolerance applies and
# rebaselining cannot paper over a batched-backend slowdown or a
# telemetry tax creeping into the metrics-off path.
perf-check:
	$(PYTHON) benchmarks/perf_report.py --check --mode quick

# Full re-measurement (serial + parallel + cached sweep); rewrites the
# committed baseline.  Run on quiet hardware and commit the result.
perf-write:
	$(PYTHON) benchmarks/perf_report.py --write --jobs 4

# The end-to-end benchmark, this checkout against BASE (a git revision)
# in alternating pairs over seeds 0-9: per workload and end-to-end
# metric, both medians and IQRs and the win count.  Both sides run from
# sibling copies with paths of one length, .bench_build/ab/base (BASE)
# and .bench_build/ab/work (this checkout with its uncommitted and
# untracked files), removed afterwards.
perf-ab:
	$(PYTHON) benchmarks/ab.py $(BASE)

# cProfile over the heaviest experiment (FIG9), cumulative-time sorted.
# Hot-path work should start from this, not from guesses.
profile:
	$(PYTHON) -c "import cProfile, pstats; \
	from repro.experiments import run_experiment; \
	pr = cProfile.Profile(); pr.enable(); run_experiment('FIG9'); \
	pr.disable(); pstats.Stats(pr).sort_stats('cumulative').print_stats(40)"

ci: lint test test-sanitize bench-selftest test-fleet test-control scenarios obs-check perf-check
