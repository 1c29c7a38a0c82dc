# Convenience targets for the HyperHammer reproduction.

GO ?= go

.PHONY: all build test test-short test-race vet lint bench bench-short tables demo fuzz profile-gate parallel-gate history-gate hotpath-gate ledger-gate clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: every Go file must be gofmt-clean, and
# staticcheck runs when installed (offline containers can't fetch it;
# CI installs it and fails on findings).
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
		echo "lint: install with: go install honnef.co/go/tools/cmd/staticcheck@latest"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass; the trace and metrics packages have dedicated
# concurrency tests.
test-race:
	$(GO) test -race ./...

# Every table/figure experiment as benchmarks, full paper scale.
# Table 3 runs two complete attack campaigns and dominates the time.
# The raw log is committed as bench_output.txt, the record
# EXPERIMENTS.md reads figures from; no gate reads it.
# -run '^$$' skips the tests, so the log holds benchmark lines only.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./... > bench_output.txt || { cat bench_output.txt; exit 1; }
	cat bench_output.txt

# The same benchmarks at reduced scale, printed only, so the committed
# full-scale log is left as it is.
bench-short:
	$(GO) test -run '^$$' -bench=. -benchmem -short ./...

# Regenerate the paper's evaluation artifacts as text.
tables:
	$(GO) run ./cmd/hh tables -all

# The end-to-end attack demo at reduced scale.
demo:
	$(GO) run ./cmd/hh run -short

# Regression gate: record a short deterministic run's artifact and
# compare it against the committed baseline with hh diff. Simulated
# figures are seed-deterministic and hh diff compares every one of them
# exactly; a FAIL means behavior changed — either fix the regression
# or regenerate the baseline (same command as below with the output
# path pointed at testdata/baselines/short-seed4.json) and review the
# diff. The campaign's own exit status is ignored: 2 attempts rarely
# escape, and the artifact is written on every exit path.
profile-gate: build
	$(GO) run ./cmd/hh run -short -attempts 2 -artifact run_artifact.json > /dev/null; test -s run_artifact.json
	$(GO) run ./cmd/hh diff testdata/baselines/short-seed4.json run_artifact.json

# Parallel-determinism gate: the full short evaluation run twice, at
# -parallel 1 and -parallel 4, must produce byte-identical stdout and
# trace streams and a zero-tolerance hh diff match on the artifact.
# The plan section (host-cost schedule) is the one sanctioned
# exception: hh diff compares its shape exactly while its host timings
# are listed, never gated, and the Chrome trace rides along without
# perturbing any deterministic stream.
parallel-gate:
	$(GO) build -o bin/ ./cmd/hh
	bin/hh tables -short -all -parallel 1 -trace seq.trace -artifact seq.json > seq.txt
	bin/hh tables -short -all -parallel 4 -trace par.trace -artifact par.json -chrome-trace par_chrome.json > par.txt
	diff seq.txt par.txt
	cmp seq.trace par.trace
	bin/hh diff seq.json par.json
	grep -q '"criticalPath"' par.json
	bin/hh plan par.json > /dev/null
	rm -f seq.trace par.trace seq.json par.json seq.txt par.txt par_chrome.json

# Run-history gate: two identical short runs ingested into a fresh
# store must trend with zero simulated-figure drift (hh trend exit 0)
# and diff to zero when read back by run ID (hh diff STORE/RUN-ID,
# exit 0); a third run with a different hammer budget must be flagged
# (exit 1), attributed to that run, and classified as config drift. The
# campaigns' own exit statuses are ignored (2 attempts rarely escape;
# the artifact is ingested on every exit path). A run ID is its stored
# file's name: <seq>-<content hash>.
history-gate:
	$(GO) build -o bin/ ./cmd/hh
	rm -rf history_store
	bin/hh run -short -attempts 2 -store history_store > /dev/null || true
	bin/hh run -short -attempts 2 -store history_store > /dev/null || true
	bin/hh trend history_store
	bin/hh diff history_store/$$(basename history_store/*/000001-*.json .json) history_store/$$(basename history_store/*/000002-*.json .json)
	bin/hh run -short -attempts 2 -hammer-rounds 400000 -store history_store > /dev/null || true
	if bin/hh trend history_store > history_drift.txt; then \
		echo "history-gate: hh trend failed to flag the perturbed run"; cat history_drift.txt; exit 1; fi
	grep -q 'DRIFT (config)' history_drift.txt
	grep -q '000003-' history_drift.txt
	bin/hh inspect history history_store > /dev/null
	rm -rf history_store history_drift.txt
	@echo "history-gate: determinism held across identical runs; drift attributed"

# The one host-cost gate (hh diff and hh trend list host timings
# without gating them): the repository benchmark's Table-3 workload in 8
# pairs of 10-second runs, BASE against the working tree, at seeds 1..8,
# the side that runs first alternating (scripts/hotpath_gate.py). It
# fails when a run is not correct with 0 failed, or when an end-to-end
# metric's median change/base ratio is worse than its bound in the
# base's BENCHMARK.json. BASE is a git revision; empty means the parent
# of the change under test (HEAD when tracked files have uncommitted
# changes, HEAD~1 when they have none). The pair count and run length
# are constants in the script. About 4.5 minutes on a 2-vCPU host. The
# hammer path's zero-allocation claim is the tier-1 test
# dram.TestHammerAllocatesNothing.
BASE ?=
hotpath-gate:
	python3 scripts/hotpath_gate.py "$(BASE)"

# Determinism-ledger gate: the short matrix run twice with the ledger
# on must produce identical fingerprint trails (hh bisect exit 0, and
# hh diff holds the ledger section at zero tolerance); a campaign with
# a perturbed hammer budget must be flagged (hh bisect exit 1) and
# localized to the expected stream and epoch — the drift first touches
# the DRAM row-activation stream in the first hammering epoch. The
# campaigns' own exit statuses are ignored (2 attempts rarely escape;
# the artifact is written on every exit path).
ledger-gate:
	$(GO) build -o bin/ ./cmd/hh
	bin/hh tables -short -all -parallel 4 -ledger-epoch 250ms -artifact led_a.json > /dev/null
	bin/hh tables -short -all -parallel 4 -ledger-epoch 250ms -artifact led_b.json > /dev/null
	bin/hh bisect led_a.json led_b.json
	bin/hh diff led_a.json led_b.json
	bin/hh run -short -attempts 2 -ledger-epoch 100ms -artifact led_c.json > /dev/null || true
	bin/hh run -short -attempts 2 -ledger-epoch 100ms -hammer-rounds 400000 -artifact led_d.json > /dev/null || true
	if bin/hh bisect led_c.json led_d.json > ledger_drift.txt; then \
		echo "ledger-gate: hh bisect failed to flag the perturbed run"; cat ledger_drift.txt; exit 1; fi
	grep -q 'dram\.row diverged first' ledger_drift.txt
	grep -q ', epoch 1$$' ledger_drift.txt
	rm -f led_a.json led_b.json led_c.json led_d.json ledger_drift.txt
	@echo "ledger-gate: ledgers identical across same-seed runs; drift localized"

# Brief fuzzing pass over the fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzAllocFreeSequence -fuzztime=20s ./internal/buddy/
	$(GO) test -fuzz=FuzzFrameForms -fuzztime=20s ./internal/phys/
	$(GO) test -fuzz=FuzzEntryRoundTrip -fuzztime=10s ./internal/ept/
	$(GO) test -fuzz=FuzzTranslateRobustness -fuzztime=20s ./internal/ept/
	$(GO) test -fuzz=FuzzDeviceProtocol -fuzztime=20s ./internal/virtio/
	$(GO) test -fuzz=FuzzRead -fuzztime=20s ./internal/runartifact/
	$(GO) test -fuzz=FuzzOpenIndex -fuzztime=20s ./internal/runstore/
	$(GO) test -fuzz=FuzzBisect -fuzztime=20s ./internal/ledger/

clean:
	$(GO) clean ./...
	rm -f test_output.txt run_artifact.json
