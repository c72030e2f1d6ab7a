// Package obs is the repository's unified observability layer: a
// shared metrics registry, a structured channel-use tracer, and a
// trace-analysis stage that re-estimates the Definition 1 parameters
// (Pd, Pi, Ps) from what a run actually did — closing the gap between
// the parameters a simulation *assumes* and the events it *observes*
// (DESIGN.md §9).
//
// The layer is stdlib-only and obeys two contracts everything else in
// this repository already lives by:
//
//   - Determinism. Trace output is a pure function of the run's seed:
//     no wall-clock time, goroutine IDs or map-iteration order ever
//     reaches a trace line, and multi-stream runs (the parallel
//     experiment runner) write per-stream buffers that are
//     concatenated in a fixed order, so a recorded trace is
//     byte-identical across runs and worker counts. Wall-clock
//     quantities (latencies) go to the metrics registry, which is
//     deliberately non-deterministic in values but deterministic in
//     exposition order.
//
//   - Near-zero disabled overhead. A nil *Tracer is the no-op fast
//     path: every emission method nil-checks its receiver first, so
//     instrumented hot loops pay one predictable branch when tracing
//     is off. The registry's counters are single atomic adds.
//
// Three pieces:
//
//   - Registry (registry.go): named counters, gauges and log-bucketed
//     latency histograms with deterministic Prometheus-text
//     exposition. internal/capserver serves its /metrics from one;
//     the experiment runner can record batch metrics into one.
//
//   - Tracer (trace.go) + ChannelRecorder (record.go) + TraceSet
//     (traceset.go): bounded-buffer JSONL event streams. The recorder
//     wraps any per-use channel (channel.DeletionInsertion, a
//     faultinject stack, ...) and emits one event per channel use —
//     delete / insert / transmit / substitute, plus whether a fault
//     layer overrode the use — while keeping live event counts.
//     Protocol layers (syncproto.Supervisor) add chunk, attempt,
//     backoff and resync events and a per-run summary; kernels add spans
//     (Blahut–Arimoto iteration counts, sequential-decoding node
//     counts).
//
//   - Analysis (analyze.go): UseCounts.Estimate() turns observed
//     event counts into (Pd, Pi, Ps) point estimates with Wilson 95%
//     confidence intervals, and ReadTrace streams a recorded JSONL
//     trace back into a TraceSummary, so cmd/tracecap can report
//     assumed-vs-observed capacity side by side.
package obs
