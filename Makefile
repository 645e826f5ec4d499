# Developer entry points. `make check` is the CI gate: vet + build + the
# race-enabled test suite at short fidelity (full-fidelity experiment paths
# are exercised by `make test`).

GO ?= go

# Short-fidelity preset: tiny timing windows and a single workload so the
# race-enabled sweep finishes in CI time (see DefaultOptions in
# internal/experiments for the variables). MIRZA_PARALLELISM=4 runs the
# experiment job engine with four workers so the race detector watches the
# parallel path, not just -j 1.
SHORT_ENV = MIRZA_MEASURE_MS=0.2 MIRZA_WARMUP_MS=0.1 MIRZA_REPLAY_WINDOWS=2 MIRZA_WORKLOADS=xz MIRZA_PARALLELISM=4

.PHONY: check vet build test test-race test-telemetry serve-check trace-check sweep-check audit conformance bench-check clean

check: vet build test-race test-telemetry

# vet also fails when any Go file in the tree, bench/ included, is not
# gofmt-clean, and lists those files.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "not gofmt-clean:"; gofmt -l .; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(SHORT_ENV) $(GO) test -race -short ./...

# The telemetry and job-pool suites at full fidelity under the race
# detector: these cover the only registry writes that happen live during
# a parallel run (pool gauges, per-REF histogram observes).
test-telemetry:
	$(GO) test -race ./internal/telemetry/ ./internal/jobs/

# Daemon gate: the serve robustness suites (chaos/soak, backpressure,
# coalescing, drain) and the cliflags suite under the race detector, then
# the scripted end-to-end smoke test — start mirza-serve, run the same
# tiny fig3 twice, assert the second is a byte-identical cache hit, and
# SIGTERM-drain cleanly (see DESIGN.md section 13).
serve-check:
	$(GO) test -race ./internal/serve/ ./internal/cliflags/
	./scripts/serve-smoke.sh

# Trace/tenant gate: the trace-ingestion frontend and multi-tenant
# scenario suites under the race detector, then the scripted golden
# check — the example traces replayed twice and at different worker
# counts, plus the tracereplay/intervm experiment tables at -j 1 vs
# -j 4, must all be byte-identical (see DESIGN.md section 15).
trace-check:
	$(GO) test -race -count=1 ./internal/tracefile/ ./internal/tenant/
	./scripts/trace-check.sh

# Sweep/provenance gate: the sweep-engine and Merkle-ledger suites under
# the race detector (process-level determinism, SIGKILL retry, cache
# reuse, inclusion proofs, tamper detection), then the scripted
# end-to-end check — a 2-worker grid vs a 1-worker rerun must produce
# byte-identical ledgers, `mirza-sweep verify` must prove every entry,
# and flipping one recorded manifest byte must fail verification (see
# DESIGN.md section 17).
sweep-check:
	$(GO) test -race -count=1 ./internal/sweep/ ./internal/provenance/
	./scripts/sweep-check.sh

# Protocol-audit gate: the auditor's unit and property suites (synthetic
# violations, adversarial traffic, the disabled-tFAW canary), then quick
# fig3 and fig11a runs with -audit so every command the real experiment
# pipeline issues is checked against the DDR5 invariants (see
# internal/audit, DESIGN.md section 12). fig11a runs MIRZA and PRAC with
# ALERTs firing, which covers the scheduler's activate-then-ALERT path;
# ALERTs are rare in fig3. A short audited mirza-sim run covers the
# command's own entry into the shared simulation path (DESIGN.md section
# 20). A violation fails the run with the offending command history.
audit:
	$(GO) test ./internal/audit/
	$(GO) run ./cmd/mirza-bench -quick -exp fig3 -audit -j 4
	$(GO) run ./cmd/mirza-bench -quick -exp fig11a -audit -j 4
	$(GO) run ./cmd/mirza-sim -workload xz -mitigation prac -ms 0.2 -warmup-ms 0.1 -audit

# Mitigation-conformance gate: every policy registered with the track
# registry runs the full generic battery under the race detector — the
# attack-pattern security sweep against each policy's analytic bound,
# fault-injection robustness (no panics, deterministic replay), stats/
# telemetry counter sanity, parameter robustness (boundary overrides of
# every schema key build or fail, never panic), and a short audited
# full-system run (see
# internal/track/conformance, DESIGN.md section 14). A violation prints
# as "policy [check]: detail" and fails the run.
conformance:
	$(GO) test -race -count=1 ./internal/track/conformance/

# The repository benchmark (bench/) is a Go module of its own, so the root
# `go test ./...` does not build or test it. This runs its tests (a smoke
# run of every workload, BENCHMARK.json sync, wrapper and digest checks)
# against the current checkout, which catches API changes in the packages
# it imports (dram, replay, mem, track, ...). It checks correctness and
# digests only: simulator speed is judged by bench/'s compare of the parent
# commit against the change, and steady-state allocation freedom by the
# zero-alloc tests `make check` runs.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

clean:
	$(GO) clean ./...
