# Developer entry points.  `make ci` is what the CI job runs: simlint, the
# tier-1 test suite (once plain, once under the runtime determinism
# sanitizer), the end-to-end benchmark's self-tests, a scenario-spec
# schema check + dry-build, the observability self-check (spans/metrics/
# exporters cross-verified), plus a quick-mode perf smoke that fails on
# regressions beyond the tolerance against the committed BENCH_PERF.json
# baseline.
#
# `make lint` runs incrementally by default: simlint keeps a per-file
# content-hash cache at build/simlint-cache.json, so a warm run on an
# unchanged tree re-analyzes nothing.  The cache self-invalidates when
# any linter source, the rule-set version, or the trace/span/metric
# schemas change, and per entry when a file's content or policy profile
# changes — there is no rebaseline step, just delete the file (or set
# LINT_NO_CACHE=1 for one run) if you suspect it anyway.  Cross-module
# analysis (SL011-SL015) is recomputed on every run from the cached
# per-file indexes, so warm findings are always identical to cold ones.
# `make lint-stats` adds the suppression-debt report (waiver counts by
# rule and by file, stale directives, layering exemptions).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-stats test test-sanitize bench-selftest test-fleet test-control scenarios obs-check bench perf-check perf-write profile ci

# Whole-program determinism & architecture analysis (rules SL001-SL015)
# over src/ (strict profile) and tests/ + benchmarks/ (relaxed profile:
# bare asserts and wall clock allowed; layering and frozen-spec rules
# still enforced).  Incremental by default; LINT_NO_CACHE=1 escapes.
LINT_PATHS := src/ tests/ benchmarks/
LINT_FLAGS := $(if $(LINT_NO_CACHE),,--changed)
lint:
	$(PYTHON) -m repro.devtools.simlint $(LINT_FLAGS) $(LINT_PATHS)

# Same run plus the suppression-debt report on stdout.
lint-stats:
	$(PYTHON) -m repro.devtools.simlint $(LINT_FLAGS) --stats $(LINT_PATHS)

test:
	$(PYTHON) -m pytest -x -q

# The same tier-1 suite with the runtime determinism sanitizer observing
# every Simulator; results must be identical (the sanitizer never perturbs).
test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

# Self-tests of the end-to-end benchmark under perfbench/.  They pin the
# benchmark's contract with src/ (entry points, keywords, the sweep and
# fleet checks), so a rename there fails here rather than in a bench run.
bench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

# The fleet tier lane: sharded-vs-serial determinism, fluid-vs-exact
# cross-validation within the documented tolerances, epoch protocol.
test-fleet:
	$(PYTHON) -m pytest -x -q tests/fleet tests/workloads/test_fluid.py

# The control-plane lane: detector hysteresis/grid semantics, planner
# edge cases (partial plans, never exceptions), executor audit, and the
# closed loop's plain == sanitized determinism pin, plus the aging
# policies that delegate to the same detector core.
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

# End-to-end observability self-check, two layers.  Single-run: drive an
# instrumented rejuvenation run, then cross-verify the span tree against
# the measured downtime report, the Perfetto export against strict JSON,
# and the Prometheus text format against its parser.  Fleet-mode: run a
# two-shard fleet twice (serial vs sharded), assert the merged telemetry
# bundles are bit-identical, evaluate the attached SLO, and reconstruct
# every control-plane decision's causal chain (trigger -> cycle ->
# action -> mechanism -> outage) from the merged bundle alone.  Leaves
# all artifacts under build/obs/ (CI uploads them; open the traces at
# ui.perfetto.dev).
obs-check:
	$(PYTHON) -m repro.analysis --trace-out build/obs/trace.json --prom-out build/obs/metrics.prom
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

# cProfile over the heaviest experiment (FIG9), cumulative-time sorted.
# Hot-path work should start from this, not from guesses.
profile:
	$(PYTHON) -c "import cProfile, pstats; \
	from repro.experiments import run_experiment; \
	pr = cProfile.Profile(); pr.enable(); run_experiment('FIG9'); \
	pr.disable(); pstats.Stats(pr).sort_stats('cumulative').print_stats(40)"

ci: lint test test-sanitize bench-selftest test-fleet test-control scenarios obs-check perf-check
