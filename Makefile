GO ?= go

.PHONY: build vet lint test race fuzz-smoke bench benchmark ci docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism & serve-invariant linter suite: six project-specific
# analyzers (detrand seedderive maporder errdrop bodydrain atomicmix) over
# every package, plus the godoc and markdown-link contracts. Exits non-zero
# on any finding; see docs/static-analysis.md for the invariants and the
# //lint:allow escape hatch.
lint:
	$(GO) run ./cmd/tqsimlint ./...

# Docs contract: every relative markdown link resolves, and every example
# program still builds against the current API. `make lint` already checks
# the links (and the godoc contract) along with everything else; this runs
# the link check alone — the empty -run list selects no analyzer.
docs-check:
	$(GO) run ./cmd/tqsimlint -run , -godoc= -links
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# Race-check everything: the statevec worker pool, the parallel tree
# executor (on every registered backend via the conformance suite), the
# tableau tree runner, the parallel-shot baseline, and the whole serve
# layer (distributed, sweep, chaos, store and load-harness suites) all
# carry concurrency. This is the one place those suites run, and CI runs
# this target.
# ./benchmark is left out: its smoke test asserts a wall-time share
# (in_limit_share) that the race detector and a busy host decide, not the
# code; `make benchmark` runs it un-raced and checks its outputs.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/benchmark$$')

# Short fuzz smoke: the QASM parser/round-trip fuzzer, the sweep Prepare
# fuzzer (error or GridSize() points; a grid of a few small points is also
# run, each delivered once), the tqsimd job-prepare fuzzer (a 4xx, 413
# before planning for more batches than a sweep may have points, or a job
# of one unit per batch; a job of a few small batches is also run, each
# delivered once), none of which may panic or hang, and the noise draw
# fuzzer (a reuse dry run that fires nothing leaves the RNG stream where the
# dense draw leaves it; one that fires means the dense draw applied an
# operator), each from its seed corpus. Go runs one fuzz target per
# invocation. CI runs this target.
fuzz-smoke:
	$(GO) test ./internal/qasm -run xxx -fuzz FuzzParseQASM -fuzztime 10s
	$(GO) test ./internal/sweep -run xxx -fuzz FuzzSweepPrepare -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzJobPrepare -fuzztime 10s
	$(GO) test ./internal/noise -run xxx -fuzz FuzzDraw -fuzztime 10s

# Every root figure/table benchmark once (-benchtime 1x): a smoke run, so a
# benchmark that panics fails the build. CI runs this target; time a
# benchmark with -bench <name> -benchtime <d> instead.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# The repository benchmark (BENCHMARK.json, benchmark/README.md): five
# workloads, end-to-end metrics and output checks on every run. Exits
# non-zero when a check fails; it measures, it does not gate on speed.
benchmark:
	bash benchmark/run.sh -seed 1

ci: build vet lint race fuzz-smoke bench benchmark docs-check
