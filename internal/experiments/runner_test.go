package experiments

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runnerConfig is small enough that running the full batch twice stays
// cheap under `go test`.
func runnerConfig() Config {
	return Config{Symbols: 2000, CodedSymbols: 60, Quanta: 20000, Seed: 7}
}

// formatAll renders a batch's tables into one byte stream.
func formatAll(t *testing.T, results []Result) []byte {
	t.Helper()
	tables, err := Tables(results)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range tables {
		if err := tab.Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRunnerParallelMatchesSerial is the determinism guarantee: the
// emitted tables, ablations included, are byte-identical regardless of
// worker count, because every experiment draws from its own seed
// stream and no table prints a measured time. The serial run is also
// the batch's one completeness check: every E1–E13 and A1–A5 table
// has rows, and every channel experiment reports its uses.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	exps := append(Registry(), AblationRegistry()...)
	serial, err := Run(context.Background(), runnerConfig(), exps, RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), runnerConfig(), exps, RunOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := formatAll(t, serial), formatAll(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel output differs from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}

	rows := map[string]int{}
	uses := map[string]int64{}
	for _, r := range serial {
		rows[r.Table.ID] = len(r.Table.Rows)
		uses[r.Experiment.ID] = r.Uses
	}
	if len(rows) != 18 {
		t.Errorf("got %d tables, want 13 experiments and 5 ablations", len(rows))
	}
	for i := 1; i <= 13; i++ {
		if id := "E" + strconv.Itoa(i); rows[id] == 0 {
			t.Errorf("%s is missing or has no rows", id)
		}
	}
	for i := 1; i <= 5; i++ {
		if id := "A" + strconv.Itoa(i); rows[id] == 0 {
			t.Errorf("%s is missing or has no rows", id)
		}
	}
	// The experiments that drive a channel register their uses, so the
	// summary's uses/sec is meaningful for them.
	for _, id := range []string{"E1", "E2", "E3", "E6", "E7", "E8", "E9", "E11", "E12"} {
		if uses[id] <= 0 {
			t.Errorf("%s reports %d channel uses, want > 0", id, uses[id])
		}
	}
}

func TestRunnerResultsInRegistryOrder(t *testing.T) {
	results, err := Run(context.Background(), runnerConfig(), Registry(),
		RunOptions{Jobs: 4, Only: []string{"E10", "E4", "E5"}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range results {
		ids = append(ids, r.Experiment.ID)
	}
	if got := strings.Join(ids, ","); got != "E4,E5,E10" {
		t.Errorf("selection order = %s, want registry order E4,E5,E10", got)
	}
}

func TestRunnerUnknownIDErrors(t *testing.T) {
	_, err := Run(context.Background(), runnerConfig(), Registry(),
		RunOptions{Only: []string{"E99"}})
	if err == nil || !strings.Contains(err.Error(), "E99") {
		t.Fatalf("want unknown-id error naming E99, got %v", err)
	}
}

// TestRunnerRecoversPanics: a panicking experiment runs exactly once
// and yields an error with no table, and its sibling is unaffected.
func TestRunnerRecoversPanics(t *testing.T) {
	var calls atomic.Int32
	exps := []Experiment{
		{ID: "PANIC", Index: 900, Title: "always panics", Run: func(Config) (Table, error) {
			calls.Add(1)
			panic("boom")
		}},
		{ID: "OK", Index: 901, Title: "succeeds", Run: func(cfg Config) (Table, error) {
			return Table{ID: "OK", Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
		}},
	}
	results, err := Run(context.Background(), runnerConfig(), exps, RunOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panic: boom") {
		t.Errorf("panic not converted to error: %v", results[0].Err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("panicking experiment ran %d times, want exactly 1", got)
	}
	if tab := results[0].Table; tab.ID != "" || tab.Rows != nil {
		t.Errorf("panicking experiment returned a table: %+v", tab)
	}
	if results[1].Err != nil {
		t.Errorf("healthy experiment poisoned by sibling panic: %v", results[1].Err)
	}
	if _, err := Tables(results); err == nil {
		t.Error("Tables must surface the panic error")
	}
}

// TestRunnerDoesNotRetryOrdinaryErrors: an error return is a verdict,
// so the experiment runs once.
func TestRunnerDoesNotRetryOrdinaryErrors(t *testing.T) {
	var calls atomic.Int32
	exps := []Experiment{
		{ID: "ERR", Index: 908, Title: "fails deliberately", Run: func(Config) (Table, error) {
			calls.Add(1)
			return Table{}, errors.New("deliberate verdict")
		}},
	}
	results, err := Run(context.Background(), runnerConfig(), exps, RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "deliberate verdict") {
		t.Errorf("want the experiment's error, got %v", results[0].Err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("ordinary error ran %d times, want a single run", got)
	}
}

func TestRunnerTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	exps := []Experiment{
		{ID: "SLOW", Index: 902, Title: "never returns in time", Run: func(Config) (Table, error) {
			<-block
			return Table{}, nil
		}},
		{ID: "FAST", Index: 903, Title: "returns immediately", Run: func(Config) (Table, error) {
			return Table{ID: "FAST"}, nil
		}},
	}
	start := time.Now()
	results, err := Run(context.Background(), runnerConfig(), exps,
		RunOptions{Jobs: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("runner blocked on the hung experiment for %v", elapsed)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("SLOW result error = %v, want deadline exceeded", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("FAST experiment failed after sibling timeout: %v", results[1].Err)
	}
}

func TestRunnerSeedStreamsIndependent(t *testing.T) {
	// Changing one experiment's Index must not change another's table:
	// each experiment is a pure function of (master seed, own index).
	base, err := Run(context.Background(), runnerConfig(), Registry(),
		RunOptions{Jobs: 1, Only: []string{"E4"}})
	if err != nil {
		t.Fatal(err)
	}
	reordered := Registry()[:6] // E4 at the same index, batch shape changed
	again, err := Run(context.Background(), runnerConfig(), reordered,
		RunOptions{Jobs: 3, Only: []string{"E4"}})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := base[0].Table.Format(&a); err != nil {
		t.Fatal(err)
	}
	if err := again[0].Table.Format(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("E4 table depends on batch composition, not only on its seed stream")
	}
}

func TestSummaryTable(t *testing.T) {
	exps := []Experiment{
		{ID: "OK", Index: 904, Title: "succeeds", Run: func(Config) (Table, error) {
			return Table{ID: "OK", Uses: 1234}, nil
		}},
		{ID: "BAD", Index: 905, Title: "fails", Run: func(Config) (Table, error) {
			return Table{}, errors.New("synthetic failure")
		}},
	}
	results, err := Run(context.Background(), runnerConfig(), exps, RunOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Summary(results).Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"OK", "ok", "1234", "BAD", "error: ", "synthetic failure", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestSummaryRowsSortedByID locks the summary's row order: natural
// experiment-ID order (A-block before E-block, E2 before E10) with the
// total row last, no matter what order the results arrive in.
func TestSummaryRowsSortedByID(t *testing.T) {
	mk := func(id string) Result {
		return Result{Experiment: Experiment{ID: id}}
	}
	// Deliberately scrambled, with the E10-vs-E2 lexicographic trap.
	results := []Result{mk("E10"), mk("A2"), mk("E2"), mk("E1"), mk("A1")}
	rows := Summary(results).Rows
	var ids []string
	for _, row := range rows {
		ids = append(ids, row[0])
	}
	want := []string{"A1", "A2", "E1", "E2", "E10", "total"}
	if len(ids) != len(want) {
		t.Fatalf("summary rows %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("summary row order %v, want %v", ids, want)
		}
	}
}

func TestIDLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"E2", "E10", true},
		{"E10", "E2", false},
		{"A5", "E1", true},
		{"E1", "E1", false},
		{"RUN", "E1", false}, // non-numeric IDs order by string
	}
	for _, c := range cases {
		if got := idLess(c.a, c.b); got != c.want {
			t.Errorf("idLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestRunPreCanceledContext: a batch handed an already-canceled context
// must not start any experiment — each result fails fast with the
// context verdict and no run starts.
func TestRunPreCanceledContext(t *testing.T) {
	var calls atomic.Int32
	exps := []Experiment{
		{ID: "NEVER", Index: 909, Title: "must not run", Run: func(Config) (Table, error) {
			calls.Add(1)
			return Table{ID: "NEVER"}, nil
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Run(ctx, runnerConfig(), exps, RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("result error = %v, want context.Canceled", results[0].Err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("experiment ran %d times under a pre-canceled context, want 0", got)
	}
}

// TestRunnerNoRetryAfterCancel: a panic whose batch was canceled
// mid-run is an error, and the experiment is not run again.
func TestRunnerNoRetryAfterCancel(t *testing.T) {
	var calls atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exps := []Experiment{
		{ID: "CRASH", Index: 910, Title: "cancels then panics", Run: func(Config) (Table, error) {
			calls.Add(1)
			cancel() // the batch dies while this attempt is in flight
			panic("crash during canceled batch")
		}},
	}
	results, err := Run(ctx, runnerConfig(), exps, RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("experiment ran %d times, want 1", got)
	}
	if results[0].Err == nil {
		t.Error("canceled crashed attempt reported no error")
	}
}

func TestStreamIndicesUnique(t *testing.T) {
	seen := map[uint64]string{}
	for _, e := range append(Registry(), AblationRegistry()...) {
		if prev, dup := seen[e.Index]; dup {
			t.Errorf("experiments %s and %s share seed-stream index %d", prev, e.ID, e.Index)
		}
		seen[e.Index] = e.ID
	}
}
