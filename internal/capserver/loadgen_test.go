package capserver

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDistPercentileNearestRank checks Percentile against nearest-rank
// ranks ceil(p*n). Sample k (1-based, added in descending order) is k
// milliseconds, so the returned value names the rank.
func TestDistPercentileNearestRank(t *testing.T) {
	for _, tt := range []struct {
		n    int
		p    float64
		rank int
	}{
		{n: 1, p: 0.5, rank: 1},
		{n: 1, p: 0.99, rank: 1},
		{n: 10, p: 0.5, rank: 5},
		{n: 10, p: 0.9, rank: 9},
		{n: 16, p: 0.5, rank: 8},
		{n: 16, p: 0.9, rank: 15},
		{n: 16, p: 0.99, rank: 16},
		{n: 100, p: 0.99, rank: 99},
		{n: 199, p: 0.5, rank: 100},
		{n: 199, p: 0.9, rank: 180},
		{n: 199, p: 0.99, rank: 198},
		{n: 199, p: 1, rank: 199},
		{n: 199, p: 0.001, rank: 1},
	} {
		var d Dist
		for k := tt.n; k >= 1; k-- {
			d.add(time.Duration(k) * time.Millisecond)
		}
		if got, want := d.Percentile(tt.p), time.Duration(tt.rank)*time.Millisecond; got != want {
			t.Errorf("n=%d p=%v: Percentile = %v, want rank %d (%v)", tt.n, tt.p, got, tt.rank, want)
		}
	}
	var empty Dist
	if got := empty.Percentile(0.9); got != 0 {
		t.Errorf("empty Percentile = %v, want 0", got)
	}
	if got := empty.Median(); got != 0 {
		t.Errorf("empty Median = %v, want 0", got)
	}
}

func TestPlanRequestsDeterministic(t *testing.T) {
	opts := LoadOptions{BaseURL: "http://x", Requests: 64}.withDefaults()
	a, b := planRequests(opts), planRequests(opts)
	if len(a) != 64 {
		t.Fatalf("plan length %d, want 64", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identical plans: %+v vs %+v", i, a[i], b[i])
		}
	}
	opts2 := opts
	opts2.Seed = 2
	c := planRequests(opts2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical plans")
	}
}

func TestPlanRequestsRespectsMix(t *testing.T) {
	opts := LoadOptions{
		BaseURL:  "http://x",
		Requests: 50,
		Mix:      map[string]float64{"predict": 1},
	}.withDefaults()
	for i, r := range planRequests(opts) {
		if r.endpoint != "predict" {
			t.Fatalf("request %d endpoint %q with a predict-only mix", i, r.endpoint)
		}
		if !strings.HasPrefix(r.url, "http://x/v1/predict?") {
			t.Fatalf("request %d url %q", i, r.url)
		}
	}
}

func TestRunLoadMixedWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	report, err := RunLoad(LoadOptions{
		BaseURL:     ts.URL,
		Requests:    60,
		Concurrency: 4,
		Seed:        1,
		Unique:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Total != 60 || report.Errors != 0 {
		t.Fatalf("total %d errors %d, want 60/0", report.Total, report.Errors)
	}
	if report.Status[200] != 60 {
		t.Fatalf("status counts %v, want all 200", report.Status)
	}
	// 60 requests over <= 3 endpoints x 4 variants: most must be cached.
	if rate := report.CacheHitRate(); rate < 0.5 {
		t.Errorf("cache hit rate %.3f, want >= 0.5 with 4 unique points", rate)
	}
	if report.Throughput() <= 0 {
		t.Errorf("throughput %v, want > 0", report.Throughput())
	}
}

// TestRunLoadClosesItsConnections: every connection the server
// accepted during a run is closed within 1 s of RunLoad's return, so a
// graceful Shutdown right after the run has none to wait for.
func TestRunLoadClosesItsConnections(t *testing.T) {
	srv := New(Config{})
	defer srv.Shutdown(context.Background())
	var mu sync.Mutex
	open := make(map[net.Conn]bool)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch state {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	ts.Start()
	defer ts.Close()
	if _, err := RunLoad(LoadOptions{BaseURL: ts.URL, Requests: 40, Concurrency: 4, Seed: 1, Unique: 4}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := len(open)
		mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open 1 s after RunLoad returned", n)
		}
	}
}

func TestSmokeAgainstLiveServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if err := Smoke(ts.URL); err != nil {
		t.Fatal(err)
	}
}
