# Quality gates for the reproduction. `make ci` is the full pipeline the
# repo must pass before merging; individual targets run one gate.

GO ?= go

.PHONY: ci fmt vet build test race fuzz-smoke bench-smoke serve-smoke trace-smoke cluster-smoke trace-cluster-smoke sessions-smoke alerts-smoke bench bench-json bench-cluster bench-sessions bench-alerts

ci: fmt vet build test race fuzz-smoke bench-smoke serve-smoke trace-smoke cluster-smoke trace-cluster-smoke sessions-smoke alerts-smoke

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The runner fans experiments out across goroutines; the race detector
# guards the result-slot and seed-stream plumbing.
race:
	$(GO) test -race ./...

# 30 seconds per native fuzz target: the Definition 1 trace invariants,
# the fault-spec grammar, the session NDJSON decoder, and the decoder's
# canonical-subset scanner against its encoding/json reference.
# Regressions the unit corpus misses show up here first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDeletionInsertionTransmit$$' -fuzztime 30s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 30s ./internal/faultinject
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 30s ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatchDiff$$' -fuzztime 30s ./internal/session

# One iteration of the serial/parallel batch benchmarks, as a smoke
# test that the benchmark harness itself still runs; then a smoke run of
# the kernel trajectory tool, validating both its fresh output and the
# committed BENCH_kernels.json parse with the expected metric keys.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAll(Serial|Parallel)$$' -benchtime 1x .
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/kernelbench -smoke -out "$$tmp" && \
	$(GO) run ./cmd/kernelbench -check "$$tmp" && \
	$(GO) run ./cmd/kernelbench -check BENCH_kernels.json
	$(GO) run ./cmd/capload -mode cluster-check BENCH_cluster.json
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/sessload -mode run -sessions 400 -seed 7 -bench-out "$$tmp" -assert && \
	$(GO) run ./cmd/sessload -mode check -min-sessions 400 "$$tmp" && \
	$(GO) run ./cmd/sessload -mode check BENCH_sessions.json
	$(GO) test -run '^TestOwnedFastPathZeroAlloc$$' -v ./internal/cluster
	$(GO) test -run '^TestDecodeLineZeroAlloc$$' -v ./internal/session
	$(GO) test -run '^TestMonteCarloZeroAlloc$$' -v ./internal/delcap
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/capwatch -mode bench -rules 120 -series 12 -ticks 150 -bench-out "$$tmp" && \
	$(GO) run ./cmd/capwatch -mode check "$$tmp" && \
	$(GO) run ./cmd/capwatch -mode check BENCH_alerts.json

# Serving gate: boot a capserver in-process on an ephemeral port, hit
# every endpoint, assert 200 + well-formed JSON, shut down cleanly.
serve-smoke:
	$(GO) run ./cmd/capload -selfhost -mode smoke

# Cluster gate: a seeded 3-node kill/restart fault run over a shared
# result store. -assert fails the run unless every response is
# byte-identical to a single-node oracle, the restarted node serves the
# run's unique points as pure cache traffic (LRU or store, never a
# recompute), and the fault machinery actually engaged (hedge, retry
# and degraded counters all nonzero).
cluster-smoke:
	$(GO) run ./cmd/capload -mode cluster -cluster n1,n2,n3 \
		-requests 90 -unique 8 -exact-n 8 \
		-kill-after 30 -restart-after 60 -assert

# Session gate, two legs. First a seeded in-process drift run: 2000
# streaming sessions, every tenth switching to an injected drift regime
# halfway through; -assert fails unless the online estimators converge
# to the planted parameters, the change-point detector flags the drift
# inside the drift window (i.e. before the equivalent offline analysis
# window closes), and clean-phase false alarms stay under 2%. Then the
# cluster leg: sessions sharded across a 3-node ring with an owner
# killed and restarted mid-run, asserting single ownership, honest 502s
# during the outage, full drain afterwards, and cross-node read
# identity.
sessions-smoke:
	$(GO) run ./cmd/sessload -mode run -sessions 2000 -seed 11 -assert
	$(GO) run ./cmd/sessload -mode cluster -cluster n1,n2,n3 -assert

# Alert gate: a seeded 3-node kill/restart run under the health verdict
# layer. -assert fails unless the surviving members walk the exact
# healthy -> pending -> firing -> resolved timeline, the restarted
# node's counter reset fires nothing (reset-guard stays silent), and the
# timeline is byte-identical at two -jobs parallelism levels.
alerts-smoke:
	$(GO) run ./cmd/capwatch -mode harness -assert

# Observability gate: record a seeded channel-use trace with chansim,
# re-estimate (Pd, Pi, Ps) from it with tracecap, and assert the
# trace-driven estimate agrees with the simulated parameters.
trace-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/chansim -proto counter -n 4 -pd 0.1 -pi 0.05 -ps 0.02 \
		-symbols 20000 -seed 7 -trace "$$tmp/run.jsonl" >/dev/null && \
	$(GO) run ./cmd/tracecap -n 4 -pd 0.1 -pi 0.05 -ps 0.02 "$$tmp/run.jsonl" \
		| tee "$$tmp/analysis.txt" && \
	grep -q "agrees with the assumed point" "$$tmp/analysis.txt"

# Tracing gate: the cluster fault run again, with request tracing on
# and per-node trace files written out, then the capstat analyzer over
# those files. The grep is the point of the gate: capstat only prints
# that line when every chain invariant holds AND the trace-derived
# accounting equals the routing counters exactly, across the kill and
# the restart.
trace-cluster-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/capload -mode cluster -cluster n1,n2,n3 \
		-requests 90 -unique 8 -exact-n 8 \
		-kill-after 30 -restart-after 60 -assert \
		-trace-dir "$$tmp" && \
	$(GO) run ./cmd/capstat -counters "$$tmp/counters.json" \
		"$$tmp"/n1.jsonl "$$tmp"/n2.jsonl "$$tmp"/n3.jsonl \
		| tee "$$tmp/capstat.txt" && \
	grep -q "reconciles exactly" "$$tmp/capstat.txt"

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Full kernel before/after measurement: rewrites BENCH_kernels.json,
# the machine-readable perf trajectory of the optimized hot paths vs.
# their retained reference implementations.
bench-json:
	$(GO) run ./cmd/kernelbench -out BENCH_kernels.json

# Full cluster fault run: rewrites BENCH_cluster.json, the committed
# record of the 3-node kill/restart harness (routing counters, oracle
# byte identity, post-restart convergence).
bench-cluster:
	$(GO) run ./cmd/capload -mode cluster -cluster n1,n2,n3 \
		-requests 240 -unique 12 -exact-n 8 -assert \
		-bench-out BENCH_cluster.json

# Full session load run: rewrites BENCH_sessions.json, the committed
# record of the 10^5-concurrent-session acceptance run (throughput,
# convergence, drift-detection delay).
bench-sessions:
	$(GO) run ./cmd/sessload -mode run -sessions 100000 -assert \
		-bench-out BENCH_sessions.json

# Full rule-engine measurement: rewrites BENCH_alerts.json, the
# committed throughput trajectory of the alert evaluator (400 rules x
# 600 ticks over 24 series).
bench-alerts:
	$(GO) run ./cmd/capwatch -mode bench -bench-out BENCH_alerts.json
