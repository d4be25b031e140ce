GO ?= go

.PHONY: build vet lint test race fuzz-smoke bench-kernels bench-sweep bench bench-trajectory bench-compare ci docs-check

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
# carry concurrency. This is the one place those suites run in CI.
race:
	$(GO) test -race ./...

# Short fuzz smoke: the QASM parser/round-trip fuzzer plus its committed
# regression corpus. Go runs one fuzz target per invocation.
fuzz-smoke:
	$(GO) test ./internal/qasm -run xxx -fuzz FuzzParseQASM -fuzztime 10s

# Kernel microbenchmarks: per-gate-class amps/s across widths and qubit
# positions. Track these across PRs for hot-path regressions.
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkKernels_' -benchtime 1s .

# Cross-point reuse benchmark: the same noise-grid sweep with prefix reuse
# on vs off; the reported gateops/sweep ratio is the work reduction (the
# run errors if reuse stops reducing work).
bench-sweep:
	$(GO) test -run xxx -bench BenchmarkSweepReuse -benchtime 1x -v .

# Full figure/table benchmark sweep (slow).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Performance trajectory: measure kernels, sweep reuse, serve quantiles
# and the saturation knee; write BENCH_$(PR).json and gate against the
# highest-numbered committed BENCH_*.json with noise-tolerant thresholds
# (exit 1 on regression). Bump PR per stacked change: make bench-trajectory PR=9
PR ?= 10
bench-trajectory:
	$(GO) run ./cmd/benchreport -pr $(PR) -check -against auto

# Benchstat-style before/after table of two committed trajectory points
# (per-kernel amps/s ratios plus the sweep/serve/knee metrics). Defaults to
# the two highest-numbered BENCH_*.json: make bench-compare, or
# make bench-compare A=BENCH_5.json B=BENCH_9.json
A ?= $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -2 | head -1)
B ?= $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
bench-compare:
	$(GO) run ./cmd/benchreport -diff $(A) $(B)

ci: build vet lint race fuzz-smoke bench-sweep bench-trajectory docs-check
