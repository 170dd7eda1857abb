# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: build test vet test-race fuzz-artifact trace-smoke bench experiments experiments-par examples clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages that run concurrently: the sweep harness, the
# experiment runner it drives, and the event engine underneath.
# internal/core rides along for the UVM-runtime regression tests and the
# worker-count byte-identity suite, internal/gpu for the cluster protocol
# those workers execute, and internal/trace and internal/workload for
# Kernel.Emit's contract that a warp may be emitted from concurrent
# goroutines (same list CI runs).
test-race:
	$(GO) test -race -timeout 20m ./internal/harness ./internal/exp ./internal/sim ./internal/core ./internal/gpu ./internal/trace ./internal/workload

# Coverage-guided fuzz of the UVMCMP1 compiled-trace decoder on top of
# the committed corpus (internal/trace/testdata/fuzz). The harness
# re-checksums mutated inputs so mutations reach the structural
# validators, and replays every successful decode end to end (same leg
# CI runs; see DESIGN.md §15).
fuzz-artifact:
	$(GO) test -run '^$$' -fuzz FuzzReadCompiledArtifact -fuzztime 30s ./internal/trace

# Traced smoke: a short run with -trace must produce structurally valid
# Chrome trace-event JSON (same check CI runs).
trace-smoke:
	$(GO) run ./cmd/uvmsim -workload BFS-TTC -policy to+ue -vertices 16384 -trace smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck smoke.json

# The recorded artifacts: full test log and benchmark log.
test_output.txt:
	$(GO) test ./... 2>&1 | tee $@

bench_output.txt:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee $@

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Regenerate every table and figure of the paper. -jobs 0 fans the
# simulation grid out over every CPU; results are identical to a serial
# run (tens of minutes on one core, minutes on many).
experiments:
	$(GO) run ./cmd/experiments -scale paper -jobs 0 -out results_paper.txt

# The same sweep, resumable: completed simulations land in .uvmsim-cache
# as they finish, so an interrupted run picks up where it stopped, and
# the sweep's timing telemetry is recorded as a benchmark artifact.
experiments-par:
	$(GO) run ./cmd/experiments -scale paper -jobs 0 -resume -bench-json BENCH_harness.json -out results_paper.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/policysweep
	$(GO) run ./examples/oversubscription
	$(GO) run ./examples/batchtrace
	$(GO) run ./examples/runahead

clean:
	rm -f test_output.txt bench_output.txt smoke.json
	rm -rf .uvmsim-cache
