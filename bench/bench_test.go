package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/capserver"
)

// tinyScale shrinks every workload so all four run, untraced and
// traced, in a few seconds.
var tinyScale = scale{
	warmup:         50 * time.Millisecond,
	setupMin:       2,
	setupMax:       2,
	hotBounds:      12,
	hotPredict:     4,
	ringPoints:     48,
	ringCache:      4,
	sessions:       8,
	events:         32,
	batchPoints:    4,
	earlierBatches: 2,
	sample:         16,
	kernelPoints:   8,
	sessionBatches: 4,
	slice:          150 * time.Millisecond,
	tick:           100 * time.Millisecond,
}

func tinyRun(t *testing.T, workload string, trace bool, h hooks) result {
	t.Helper()
	opt := options{workload: workload, seed: 7, seconds: 0.4, trace: trace,
		workDir: t.TempDir(), scale: tinyScale, hooks: h}
	if trace {
		opt.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
	}
	res, err := run(opt)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and requires each metric BENCHMARK.json names to be
// emitted, finite and in its unit, and nothing else.
func TestSmoke(t *testing.T) {
	def, err := readDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(def.Workloads), len(specs))
	}
	units := func(trace bool) map[string]string {
		m := map[string]string{}
		if trace {
			for _, d := range def.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range def.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, w := range def.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, hooks{})
			if res.checkErr != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, res.checkErr)
			}
			out, err := report(res, trace)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := units(trace)
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, v)
				case out.Metrics[name].Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, trace, name, out.Metrics[name].Unit, unit)
				}
			}
		}
	}
}

// flipStore returns every stored body with one byte changed.
type flipStore struct{ capserver.ResultStore }

func (s flipStore) Get(key string) ([]byte, bool) {
	b, ok := s.ResultStore.Get(key)
	if ok {
		b = bytes.Clone(b)
		b[len(b)/2] ^= 1
	}
	return b, ok
}

// TestChecksFailOnMutation shows each correctness check is not vacuous:
// a seeded mutation of the property it guards makes the run incorrect.
func TestChecksFailOnMutation(t *testing.T) {
	cases := []struct {
		name, workload string
		h              hooks
		want           string
	}{
		{"store read flips a byte", "ring-spill",
			hooks{wrapStore: func(s capserver.ResultStore) capserver.ResultStore { return flipStore{s} }},
			"differs from the single-node oracle"},
		{"oracle differs by a byte", "hot-point",
			hooks{mutateOracle: func(b []byte) []byte { b = bytes.Clone(b); b[0] ^= 1; return b }},
			"differs from the single-node oracle"},
		{"oracle differs by a byte in a batch", "cold-grid",
			hooks{mutateOracle: func(b []byte) []byte { b = bytes.Clone(b); b[len(b)-2] ^= 1; return b }},
			"differs from the single-node oracle"},
		{"client drops a session batch", "session-stream", hooks{dropIngest: 3}, "client sent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tinyRun(t, tc.workload, false, tc.h)
			if res.checkErr == nil || !strings.Contains(res.checkErr.Error(), tc.want) {
				t.Fatalf("check error = %v, want one containing %q", res.checkErr, tc.want)
			}
		})
	}
}

// TestQuartiles pins the spread rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
