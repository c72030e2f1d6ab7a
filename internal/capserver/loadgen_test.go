package capserver

import (
	"strings"
	"testing"
)

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

// TestBenchCacheSpeedup is the acceptance gate in miniature: cached
// /v1/bounds requests must be at least 10x faster at the median than
// cold computations of the same points. exact_n=8 costs ~10ms cold
// while hits are typically tens of microseconds, so the margin is wide.
func TestBenchCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("compute-bound benchmark")
	}
	_, ts := newTestServer(t, Config{})
	res, err := BenchCache(ts.URL, 8, 2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 2 || res.Hits != 10 {
		t.Fatalf("sample counts misses=%d hits=%d, want 2/10", res.Misses, res.Hits)
	}
	if res.Speedup < 10 {
		t.Errorf("cache speedup %.1fx (miss %v / hit %v), want >= 10x",
			res.Speedup, res.MissMedian, res.HitMedian)
	}
}

func TestSmokeAgainstLiveServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if err := Smoke(ts.URL, nil); err != nil {
		t.Fatal(err)
	}
}
