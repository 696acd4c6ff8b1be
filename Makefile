GO ?= go

.PHONY: build test race lint verify figures bench bench-obs bench-e2e trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benign-trace sweep runs as parallel per-trace subtests through
# internal/sweep, so the race job scales with cores instead of running
# the traces back to back; -parallel bounds the subtest width and the
# timeout has headroom for single-core runners.
race:
	$(GO) test -race -timeout 30m -parallel 4 ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/jurylint ./...

# verify is the tier-1 gate: compile, vet, enforce the determinism &
# concurrency contract with jurylint, then run the test suite.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/jurylint ./...
	$(GO) test ./...

# figures regenerates every TSV series through the cached sweep: reruns
# resume from .jurycache, so an interrupted campaign only re-executes
# the missing points. Delete .jurycache to force a cold regeneration.
figures:
	$(GO) run ./cmd/juryfig -all -progress -cache .jurycache > figures.tsv

# bench seeds the performance trajectory: the obs-overhead
# microbenchmarks and the validator submit path at full statistical
# weight, plus one pass over the root figure benchmarks, captured as
# BENCH_obs.json. The file embeds the raw text under .raw, so
#   jq -r .raw BENCH_obs.json | benchstat /dev/stdin
# reconstructs benchstat's native input for comparisons against later
# baselines.
bench:
	{ $(GO) test -run '^$$' -bench . -benchmem ./internal/obs ./internal/core; \
	  $(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .; } \
	  | $(GO) run ./cmd/benchjson > BENCH_obs.json

# bench-obs is the observability-overhead regression step: it refreshes
# BENCH_obs.json (same recipe as bench, which now includes the flight
# recorder and series rows) and fails if the always-on recorder allocates
# on the Submit hot path (TestSubmitRecorderBoundedAlloc pins it at zero)
# or a benign flow7 trigger costs the core more than its allocation budget
# (TestTriggerAllocBudget).
bench-obs:
	$(GO) test ./internal/core -run 'TestSubmitRecorderBoundedAlloc|TestTriggerAllocBudget' -count=1
	$(MAKE) bench

# bench-e2e is the measured benchmark: a real validator service on TCP
# loopback driven by a seeded closed loop, five workloads, the end-to-end
# metrics BENCHMARK.json declares (bench/README.md has the glossary and
# the per-layer budget behind -trace 1).
bench-e2e:
	$(GO) run ./bench

# trace produces an example Chrome trace_event file from the quickstart
# scenario; open trace.json in chrome://tracing or https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/jurysim -n 3 -k 2 -duration 2s -rate 300 -trace-out trace.json
