package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/capserver"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/syncproto"
)

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), runErr
}

func TestRunProtocols(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "arq",
			args: []string{"-proto", "arq", "-n", "4", "-pd", "0.25", "-symbols", "2000"},
			want: "Theorem 1/4 upper:   3.0000",
		},
		{
			name: "counter",
			args: []string{"-proto", "counter", "-n", "4", "-pd", "0.2", "-pi", "0.1", "-symbols", "2000"},
			want: "Theorem 5 lower",
		},
		{
			name: "syncvar",
			args: []string{"-proto", "syncvar", "-n", "4", "-psender", "0.5", "-symbols", "2000"},
			want: "slot errors:         0",
		},
		{
			name: "event",
			args: []string{"-proto", "event", "-n", "4", "-miss", "0.2", "-symbols", "2000"},
			want: "protocol:            event",
		},
		{
			name: "naive",
			args: []string{"-proto", "naive", "-n", "4", "-pd", "0.05", "-pi", "0.05", "-symbols", "2000"},
			want: "protocol:            naive",
		},
		{
			name: "delayed",
			args: []string{"-proto", "delayed", "-n", "4", "-pd", "0.2", "-delay", "2", "-symbols", "2000"},
			want: "protocol:            delayed",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := capture(t, func() error { return run(tt.args) })
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, tt.want) {
				t.Fatalf("output missing %q:\n%s", tt.want, out)
			}
		})
	}
}

func TestRunInjected(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "counter outage",
			args: []string{"-proto", "counter", "-n", "4", "-pd", "0.1", "-symbols", "3000",
				"-inject", "outage=0.2"},
			want: []string{"protocol:            counter (supervised)",
				"fault spec:          outage=0.2", "supervision status:"},
		},
		{
			name: "arq jam",
			args: []string{"-proto", "arq", "-n", "4", "-pd", "0.1", "-symbols", "2000",
				"-inject", "jam=0.1"},
			want: []string{"protocol:            arq (supervised)", "injected faults:"},
		},
		{
			name: "naive stuck plus drift",
			args: []string{"-proto", "naive", "-n", "4", "-pd", "0.05", "-symbols", "2000",
				"-inject", "stuck=0.1;drift=0.05"},
			want: []string{"fault spec:          stuck=0.1;drift=0.05", "resyncs:"},
		},
		{
			// The attempt deadline ends a run over a dead channel.
			name: "counter dead channel",
			args: []string{"-proto", "counter", "-n", "4", "-pd", "1", "-symbols", "10",
				"-inject", "outage=0.1"},
			want: []string{"supervision status:  failed"},
		},
		{
			name: "delayed dead channel",
			args: []string{"-proto", "delayed", "-n", "4", "-pd", "1", "-symbols", "500",
				"-inject", "outage=0.1"},
			want: []string{"protocol:            delayed (supervised)", "supervision status:  failed"},
		},
		{
			name: "delayed drift",
			args: []string{"-proto", "delayed", "-n", "4", "-pd", "0.1", "-delay", "1",
				"-symbols", "2000", "-inject", "drift=0.1"},
			want: []string{"protocol:            delayed (supervised)"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := capture(t, func() error { return run(tt.args) })
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tt.want {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRunErrors checks that each command is refused. Some would run
// forever if their refusal were dropped, so each case has a deadline:
// a run still going after it fails the test with its arguments instead
// of hanging to go test's timeout.
func TestRunErrors(t *testing.T) {
	const deadline = 5 * time.Second
	cases := [][]string{
		{"-proto", "bogus"},
		{"-proto", "arq", "-pd", "1.5"},
		{"-proto", "counter", "-n", "0"},
		{"-proto", "syncvar", "-psender", "0"},
		{"-proto", "event", "-miss", "-0.1"},
		{"-badflag"},
		// -inject rejects channel-less protocols and malformed specs.
		{"-proto", "event", "-inject", "outage=0.1"},
		{"-proto", "syncvar", "-inject", "outage=0.1"},
		{"-proto", "counter", "-inject", "outage=1.5"},
		{"-proto", "counter", "-inject", "gremlins=0.1"},
		// Unsupervised over a channel that deletes every use, these
		// would never deliver a symbol and never return.
		{"-proto", "arq", "-n", "4", "-pd", "1", "-symbols", "10"},
		{"-proto", "counter", "-n", "4", "-pd", "1", "-symbols", "10"},
		{"-proto", "delayed", "-n", "4", "-pd", "1", "-symbols", "10"},
		// ARQ resends every substituted symbol, so unsupervised it
		// would never return over a channel that substitutes them all.
		{"-proto", "arq", "-n", "4", "-pd", "0.1", "-ps", "1", "-symbols", "10"},
		{"-proto", "delayed", "-n", "4", "-pd", "0.1", "-ps", "1", "-symbols", "10"},
		// The ARQ analyses assume a deletion-only channel, as
		// /v1/simulate does.
		{"-proto", "arq", "-n", "4", "-pd", "0.2", "-pi", "0.1", "-symbols", "5000", "-seed", "3"},
		{"-proto", "delayed", "-n", "4", "-pd", "0.2", "-pi", "0.1", "-symbols", "5000", "-seed", "3"},
	}
	for _, args := range cases {
		running := false
		_, err := capture(t, func() error {
			done := make(chan error, 1)
			go func() { done <- run(args) }()
			select {
			case err := <-done:
				return err
			case <-time.After(deadline):
				running = true
				return nil
			}
		})
		if running {
			t.Fatalf("args %v: still running after %v, want an immediate refusal", args, deadline)
		}
		if err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	args := []string{"-proto", "counter", "-n", "2", "-pd", "0.1", "-pi", "0.1", "-symbols", "1000", "-seed", "9"}
	a, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same seed produced different output")
	}
}

// TestRunObservabilityOutputs checks the -trace/-metrics/-pprof
// surface on the plain path: the report gains an observed-parameter
// block, the JSONL trace re-estimates the channel parameters within
// its Wilson intervals (the check behind tracecap's "agrees with the
// assumed point", whose text TestAssumedComparison pins), the metrics
// exposition carries the per-kind use counters, and both profile
// files exist and are non-empty.
func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/run.jsonl"
	metrics := dir + "/run.prom"
	out, err := capture(t, func() error {
		return run([]string{"-proto", "counter", "-n", "4", "-pd", "0.1", "-pi", "0.05", "-ps", "0.02",
			"-symbols", "20000", "-seed", "7",
			"-trace", trace, "-metrics", metrics, "-pprof", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"observed Pd:", "observed Pi:", "observed Ps:", "observed upper:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sum, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	est := sum.Estimate()
	if est.Uses == 0 {
		t.Fatal("trace recorded no uses")
	}
	if !est.Contains(0.1, 0.05, 0.02) {
		t.Errorf("assumed (0.1, 0.05, 0.02) outside trace CIs: %+v", est)
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`chansim_uses_total{kind="transmit"}`, `chansim_run_ms_count{proto="counter"} 1`} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, prom)
		}
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(dir + "/" + name)
		if err != nil {
			t.Errorf("profile %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

// TestRunInjectedTrace checks the supervised path's trace: the
// recorder sits inside the fault stack, so injected overrides are
// attributed, and the supervisor's state machine lands in the trace.
func TestRunInjectedTrace(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/inj.jsonl"
	out, err := capture(t, func() error {
		return run([]string{"-proto", "counter", "-n", "4", "-pd", "0.05",
			"-symbols", "5000", "-seed", "3", "-inject", "outage=0.3", "-trace", trace})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "observed Pd:") {
		t.Fatalf("supervised report missing observed block:\n%s", out)
	}
	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sum, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Injected == 0 {
		t.Error("outage regime attributed no injected uses")
	}
	if sum.Chunks == 0 || sum.Attempts == 0 {
		t.Errorf("supervision events missing from trace: %+v", sum)
	}
	if est := sum.Estimate(); est.Pd < 0.15 {
		t.Errorf("observed Pd %.4f does not reflect the outage regime", est.Pd)
	}
}

// TestRunTraceDeterministic checks a recorded trace is a pure
// function of the flags and seed: two identical runs write
// byte-identical JSONL files.
func TestRunTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	runTrace := func(name string) []byte {
		path := dir + "/" + name
		if _, err := capture(t, func() error {
			return run([]string{"-proto", "counter", "-n", "4", "-pd", "0.1", "-pi", "0.05",
				"-symbols", "3000", "-seed", "9", "-trace", path})
		}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := runTrace("a.jsonl"), runTrace("b.jsonl"); !bytes.Equal(a, b) {
		t.Fatal("same seed produced different traces")
	}
}

// TestRunInjectedHonoursPs checks that -inject runs over the channel
// the flags describe, substitutions included.
func TestRunInjectedHonoursPs(t *testing.T) {
	trace := t.TempDir() + "/ps.jsonl"
	if _, err := capture(t, func() error {
		return run([]string{"-proto", "counter", "-n", "4", "-pd", "0.1", "-pi", "0.05", "-ps", "0.3",
			"-symbols", "4000", "-seed", "3", "-inject", "outage=0.2", "-trace", trace})
	}); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	sum, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Substitutes == 0 {
		t.Errorf("-ps 0.3 observed no substitutions: %+v", sum.UseCounts)
	}
}

// TestRunInjectedMatchesSimulate holds chansim -inject and /v1/simulate
// to one run: the same parameters give the same report, rendered from
// the served body, for every protocol and several fault stacks. Each
// side derives its message, channel and fault seeds itself. At ps > 0
// the served side is /v1/trace, whose body opens with /v1/simulate's
// body for the run with ps applied (/v1/simulate ignores ps).
func TestRunInjectedMatchesSimulate(t *testing.T) {
	srv := capserver.New(capserver.Config{Workers: 1})
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	type point struct{ proto, ps, spec string }
	var points []point
	for _, proto := range []string{"arq", "counter", "naive", "delayed"} {
		for _, spec := range []string{"outage=0.2", "jam=0.1", "drift=0.1;stuck=0.3"} {
			points = append(points, point{proto, "0", spec})
		}
	}
	points = append(points, point{"arq", "0.3", "outage=0.2"}, point{"delayed", "0.3", "outage=0.2"})
	for _, p := range points {
		pi := "0.05"
		if p.proto == "arq" || p.proto == "delayed" {
			pi = "0"
		}
		q := url.Values{"proto": {p.proto}, "n": {"4"}, "pd": {"0.1"}, "pi": {pi}, "delay": {"2"},
			"symbols": {"2000"}, "seed": {"3"}, "inject": {p.spec}}
		path := "/v1/simulate?"
		if p.ps != "0" {
			q.Set("ps", p.ps)
			path = "/v1/trace?"
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path+q.Encode(), nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s ps=%s %s: status %d: %s", p.proto, p.ps, p.spec, w.Code, w.Body)
		}
		var resp capserver.TraceResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		parsed, err := faultinject.ParseSpec(p.spec)
		if err != nil {
			t.Fatal(err)
		}
		served := supervisedFrom(t, resp.SimulateResponse)
		want, _ := capture(t, func() error {
			printSupervised(p.proto, parsed, 4, served, resp.InjectedFaults)
			return nil
		})
		got, err := capture(t, func() error {
			return run([]string{"-proto", p.proto, "-n", "4", "-pd", "0.1", "-pi", pi, "-ps", p.ps, "-delay", "2",
				"-symbols", "2000", "-seed", "3", "-inject", p.spec})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s ps=%s %s: chansim -inject reports\n%s\n%s serves\n%s", p.proto, p.ps, p.spec, got, strings.TrimSuffix(path, "?"), want)
		}
	}
}

// TestSupervisedCountsAgree holds every surface that reports one
// supervised run to the same counts, for each protocol and fault spec
// of TestRunInjectedMatchesSimulate plus an ARQ run whose outage fails
// every attempt: /v1/trace serves /v1/simulate's body, then its own
// fields, and tracecap reads chansim -inject -trace's file back to the
// chunk, attempt, retry and resync lines chansim printed.
func TestSupervisedCountsAgree(t *testing.T) {
	tracecap := filepath.Join(t.TempDir(), "tracecap")
	if out, err := exec.Command("go", "build", "-o", tracecap, "../tracecap").CombinedOutput(); err != nil {
		t.Fatalf("build tracecap: %v\n%s", err, out)
	}
	srv := capserver.New(capserver.Config{Workers: 1})
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	serve := func(path string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	type point struct{ proto, pd, pi, delay, seed, spec string }
	var points []point
	for _, proto := range []string{"arq", "counter", "naive", "delayed"} {
		pi := "0.05"
		if proto == "arq" || proto == "delayed" {
			pi = "0"
		}
		for _, spec := range []string{"outage=0.2", "jam=0.1", "drift=0.1;stuck=0.3"} {
			points = append(points, point{proto, "0.1", pi, "2", "3", spec})
		}
	}
	points = append(points, point{"arq", "0.3", "0", "4", "2", "outage=0.9"})
	for _, p := range points {
		q := url.Values{"proto": {p.proto}, "n": {"4"}, "pd": {p.pd}, "pi": {p.pi}, "delay": {p.delay},
			"symbols": {"2000"}, "seed": {p.seed}, "inject": {p.spec}}
		sim, tr := serve("/v1/simulate?"+q.Encode()), serve("/v1/trace?"+q.Encode())
		if open := sim[:len(sim)-2]; !bytes.HasPrefix(tr, open) || tr[len(open)] != ',' {
			t.Errorf("%s %s: /v1/trace body\n%s\ndoes not open with the /v1/simulate body\n%s", p.proto, p.spec, tr, sim)
		}

		trace := filepath.Join(t.TempDir(), "run.jsonl")
		report, err := capture(t, func() error {
			return run([]string{"-proto", p.proto, "-n", "4", "-pd", p.pd, "-pi", p.pi, "-delay", p.delay,
				"-symbols", "2000", "-seed", p.seed, "-inject", p.spec, "-trace", trace})
		})
		if err != nil {
			t.Fatal(err)
		}
		analysis, err := exec.Command(tracecap, trace).Output()
		if err != nil {
			t.Fatalf("tracecap %s: %v", trace, err)
		}
		compared := 0
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, "chunks:") || strings.HasPrefix(line, "attempts:") || strings.HasPrefix(line, "resyncs:") {
				compared++
				if !bytes.Contains(analysis, []byte(line+"\n")) {
					t.Errorf("%s %s: chansim printed %q, tracecap printed\n%s", p.proto, p.spec, line, analysis)
				}
			}
		}
		if compared != 3 {
			t.Errorf("%s %s: chansim printed %d supervision lines, want 3:\n%s", p.proto, p.spec, compared, report)
		}
	}
}

// supervisedFrom rebuilds the supervised result a /v1/simulate body
// reports.
func supervisedFrom(t *testing.T, r capserver.SimulateResponse) syncproto.SupervisedResult {
	t.Helper()
	res := syncproto.SupervisedResult{
		Result: syncproto.Result{
			MessageSymbols: r.Symbols, Uses: r.Uses, SenderOps: r.SenderOps, Delivered: r.Delivered,
			SymbolErrors: r.SymbolErrors, SkippedSymbols: r.SkippedSymbols, MutualInfoPerSlot: r.MutualInfoPerSlot,
		},
		Chunks: r.Chunks, Attempts: r.Attempts, Retries: r.Retries, Resyncs: r.Resyncs,
		FailedChunks: r.FailedChunks, BackoffUses: r.BackoffUses,
	}
	for _, st := range []syncproto.Status{syncproto.StatusOK, syncproto.StatusDegraded, syncproto.StatusFailed} {
		if st.String() == r.Status {
			res.Status = st
			return res
		}
	}
	t.Fatalf("unknown status %q", r.Status)
	return res
}
