# Quality gates for the reproduction. `make ci` is the full pipeline the
# repo must pass before merging; individual targets run one gate.

GO ?= go

.PHONY: ci fmt vet build test race fuzz-smoke bench-smoke bench bench-sessions

ci: fmt vet build test race fuzz-smoke bench-smoke

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

# 10 seconds per native fuzz target: the loop runs every Fuzz function
# `go test -list` finds, so a new target cannot be left out. DESIGN.md
# section 6 lists what each one checks. Regressions the unit corpus
# misses show up here first.
fuzz-smoke:
	@out="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$out"; exit 1; }; \
	targets="$$(echo "$$out" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2 "," t[i]; n = 0 }')"; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz target found"; exit 1; }; \
	for pt in $$targets; do \
		pkg="$${pt%,*}"; target="$${pt#*,}"; \
		echo "fuzz-smoke: $$target in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s "$$pkg" || exit 1; \
	done

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

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The 10^5-concurrent-session acceptance run: -assert fails unless the
# convergence, drift-detection and false-alarm bounds hold; the timing:
# line reports events/s.
bench-sessions:
	$(GO) run ./cmd/sessload -mode run -sessions 100000 -assert
