GO ?= go

.PHONY: build test race lint verify figures bench-e2e trace

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

# verify is the tier-1 gate: compile, vet, then run the test suite, which
# holds the determinism contract (fingerprints, goldens, repeat runs and
# the errcrit/maprange lint in TestRepoIsLintClean; DESIGN.md
# "Determinism contract & lint rules"). Lock discipline is held by the
# -race tests (`make race`).
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# figures regenerates every TSV series through the cached sweep: reruns
# resume from .jurycache, so an interrupted campaign only re-executes
# the missing points. Delete .jurycache to force a cold regeneration.
figures:
	$(GO) run ./cmd/jury fig -all -progress -cache .jurycache > figures.tsv

# bench-e2e is the measured benchmark: a real validator service on TCP
# loopback driven by a seeded closed loop, five workloads, the end-to-end
# metrics BENCHMARK.json declares (bench/README.md has the glossary and
# the per-layer budget behind -trace 1).
bench-e2e:
	$(GO) run ./bench

# trace produces an example Chrome trace_event file from the quickstart
# scenario; open trace.json in chrome://tracing or https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/jury sim -n 3 -k 2 -duration 2s -rate 300 -trace-out trace.json
