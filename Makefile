# Quality gates for the reproduction. `make ci` is the full pipeline the
# repo must pass before merging; individual targets run one gate.

GO ?= go

.PHONY: ci fmt vet build test race fuzz-smoke bench-smoke experiments-digest trace-smoke trace-cluster-smoke bench bench-sessions

ci: fmt vet build test race fuzz-smoke bench-smoke experiments-digest trace-smoke trace-cluster-smoke

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

# 10 seconds per native fuzz target, 120 seconds in all: the
# Definition 1 trace invariants, the fault-spec grammar (every spec it
# accepts round-trips and builds a fault stack), the session NDJSON
# decoder, the decoder's fused exact-layout tier against its
# encoding/json reference, the result-store entry decoder, the result
# store over arbitrary segment files, the cluster membership flag, the
# federation's parse of a member's metrics exposition, the alert-rule
# file parser, capstat's request-span reader, the router's canonical
# key over a raw query and the bounds batch body against the GET it
# stands for. Regressions the unit corpus misses show up here first.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDeletionInsertionTransmit$$' -fuzztime 10s ./internal/channel
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/faultinject
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatchDiff$$' -fuzztime 10s ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/cluster/casstore
	$(GO) test -run '^$$' -fuzz '^FuzzSegment$$' -fuzztime 10s ./internal/cluster/casstore
	$(GO) test -run '^$$' -fuzz '^FuzzParseMembership$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParseMetricsSnapshot$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime 10s ./internal/health
	$(GO) test -run '^$$' -fuzz '^FuzzReadReqSpans$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 10s ./internal/capserver
	$(GO) test -run '^$$' -fuzz '^FuzzBoundsBatch$$' -fuzztime 10s ./internal/capserver

# One iteration of the serial/parallel batch benchmarks, of each
# remaining kernel's set against its reference (Blahut-Arimoto, the
# Monte-Carlo embedding count with its draw-cost floor, the session
# NDJSON decoder, with its pooled Store.Ingest path), of the plain
# channel-transmit and convolutional decoder benchmarks and of the
# result store's Put, Get and miss, as a smoke test that the benchmarks
# themselves still run, and the bench/ module, a separate Go module
# that `./...` never builds.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAll(Serial|Parallel)$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^Benchmark(BlahutArimotoMSC|DriftViterbi|SequentialStack|Transmit|BinaryTransmit|MonteCarlo|DecodeBatch|Put|Get|GetMiss)$$' -benchtime 1x \
		./internal/infotheory ./internal/coding/conv ./internal/channel ./internal/delcap ./internal/session ./internal/cluster/casstore
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Experiment-table gate: the md5 of `experiments -seed 1` stdout must
# equal the digest recorded for GOARCH=amd64. The Go spec lets a
# compiler fuse x*y+z into one rounding, and gc does so on arm64, so
# other architectures have no recorded digest and pass with a note. E5
# runs the converted-channel Blahut-Arimoto at tol 1e-11, so the gate
# pins that kernel's printed bits too. About 2 s of compute on 2 vCPUs.
EXPERIMENTS_MD5 = 3eb179e4ca8adf278c9bf3c2209ed2a6

experiments-digest:
	@arch="$$($(GO) env GOARCH)"; \
	if [ "$$arch" != amd64 ]; then \
		echo "experiments-digest: no digest recorded for GOARCH=$$arch"; exit 0; \
	fi; \
	got="$$($(GO) run ./cmd/experiments -seed 1 -summary=false | md5sum | cut -d' ' -f1)"; \
	if [ "$$got" != "$(EXPERIMENTS_MD5)" ]; then \
		echo "experiments-digest: experiments -seed 1 stdout md5 $$got, recorded $(EXPERIMENTS_MD5)"; exit 1; \
	fi; \
	echo "experiments-digest: $$got matches"

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

# Tracing gate: capload's one fault scenario (a traced 3-node cluster
# over a shared result store, 90 requests, n2 killed before request 30
# and restarted before request 60) with the per-node trace files
# written out, then the capstat analyzer over those files. -assert
# fails the run unless every response is byte-identical to a
# single-node oracle, the forward, store-local, hedge, retry and
# degraded counters are all nonzero, no request outside [30, 60) failed
# over or degraded, the restarted node serves the run's unique points
# as pure cache traffic (LRU or store, never a recompute), and the
# spans hold every chain invariant and reconcile with the counters. The
# grep is the point of the gate: capstat only prints that line when
# every chain invariant holds AND the trace-derived accounting equals
# the routing counters exactly, across the kill and the restart, read
# back from the files alone.
trace-cluster-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/capload -mode cluster -assert -trace-dir "$$tmp" && \
	$(GO) run ./cmd/capstat -counters "$$tmp/counters.json" \
		"$$tmp"/n1.jsonl "$$tmp"/n2.jsonl "$$tmp"/n3.jsonl \
		| tee "$$tmp/capstat.txt" && \
	grep -q "reconciles exactly" "$$tmp/capstat.txt"

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The 10^5-concurrent-session acceptance run: -assert fails unless the
# convergence, drift-detection and false-alarm bounds hold; the timing:
# line reports events/s.
bench-sessions:
	$(GO) run ./cmd/sessload -mode run -sessions 100000 -assert
