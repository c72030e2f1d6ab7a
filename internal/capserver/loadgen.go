package capserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// This file is the load harness: a deterministic request generator
// plus latency accounting, used by cmd/capload and the cluster fault
// harness. "Deterministic" means the request *sequence* — endpoints,
// parameter points, ordering — is a pure function of the seed;
// wall-clock latencies obviously are not.

// LoadOptions configures a load run.
type LoadOptions struct {
	// BaseURL is the server under load, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the total number of requests to issue (default 200).
	Requests int
	// Concurrency is the number of concurrent client workers
	// (default 8).
	Concurrency int
	// Seed drives the request sequence (default 1).
	Seed uint64
	// Unique is the number of distinct parameter points per endpoint;
	// smaller values mean higher cache hit rates (default 16).
	Unique int
	// Mix weights the endpoints; keys are "bounds", "predict",
	// "simulate". Zero-weight endpoints are skipped. Defaults to
	// bounds=0.7, predict=0.2, simulate=0.1.
	Mix map[string]float64
	// ExactN, when > 0, adds exact_n=<v> to every bounds request so
	// cache misses pay a real computation (delcap exact enumeration).
	ExactN int
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

// withDefaults fills unset fields.
func (o LoadOptions) withDefaults() LoadOptions {
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Unique <= 0 {
		o.Unique = 16
	}
	if len(o.Mix) == 0 {
		o.Mix = map[string]float64{"bounds": 0.7, "predict": 0.2, "simulate": 0.1}
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

// Dist is a latency sample set with percentile accessors.
type Dist struct {
	samples []time.Duration
}

func (d *Dist) add(s time.Duration) { d.samples = append(d.samples, s) }

// Count returns the number of samples.
func (d *Dist) Count() int { return len(d.samples) }

// Percentile returns the p-th percentile (0 < p <= 1) by
// nearest-rank; 0 with no samples.
func (d *Dist) Percentile(p float64) time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Median returns the 50th percentile.
func (d *Dist) Median() time.Duration { return d.Percentile(0.5) }

// LoadReport aggregates a load run.
type LoadReport struct {
	// Total is the number of requests issued; Errors the number that
	// failed at the transport layer (connection refused, timeout).
	Total, Errors int
	// Status counts responses by HTTP status code.
	Status map[int]int
	// ByEndpoint and ByCache hold latency distributions keyed by
	// endpoint name and by X-Capserver-Cache class (hit|miss|shared).
	ByEndpoint map[string]*Dist
	ByCache    map[string]*Dist
	// Wall is the run's wall-clock duration.
	Wall time.Duration
}

// Throughput returns requests per second over the run.
func (r *LoadReport) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Total) / r.Wall.Seconds()
}

// CacheHitRate returns the fraction of 200 responses served from the
// cache (hits plus deduplicated shares).
func (r *LoadReport) CacheHitRate() float64 {
	var hit, all int
	for class, d := range r.ByCache {
		all += d.Count()
		if class == "hit" || class == "shared" {
			hit += d.Count()
		}
	}
	if all == 0 {
		return 0
	}
	return float64(hit) / float64(all)
}

// Format renders the report for humans.
func (r *LoadReport) Format(w io.Writer) {
	fmt.Fprintf(w, "requests:     %d (%d transport errors) in %v (%.1f req/s)\n",
		r.Total, r.Errors, r.Wall.Round(time.Millisecond), r.Throughput())
	codes := make([]int, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "status %d:   %d\n", c, r.Status[c])
	}
	fmt.Fprintf(w, "cache hit rate: %.3f\n", r.CacheHitRate())
	writeDists := func(label string, dists map[string]*Dist) {
		keys := make([]string, 0, len(dists))
		for k := range dists {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d := dists[k]
			fmt.Fprintf(w, "%s %-12s n=%-6d p50=%-12v p90=%-12v p99=%v\n",
				label, k, d.Count(), d.Median(), d.Percentile(0.9), d.Percentile(0.99))
		}
	}
	writeDists("endpoint", r.ByEndpoint)
	writeDists("cache", r.ByCache)
}

// request is one planned request in the deterministic sequence.
type request struct {
	endpoint string
	url      string
}

// PlannedRequest is one request of a deterministic plan as a
// server-relative path, for harnesses that dispatch one plan across
// several servers (the cluster fault harness).
type PlannedRequest struct {
	Endpoint string
	Path     string
}

// PlanPaths derives the deterministic request sequence from
// o.Seed/o.Requests/o.Unique/o.Mix as server-relative paths. It is the
// same plan RunLoad issues: two consumers with equal options replay
// the identical workload.
func PlanPaths(o LoadOptions) []PlannedRequest {
	o = o.withDefaults()
	base := o.BaseURL
	o.BaseURL = ""
	reqs := planRequests(o)
	o.BaseURL = base
	out := make([]PlannedRequest, len(reqs))
	for i, r := range reqs {
		out[i] = PlannedRequest{Endpoint: r.endpoint, Path: r.url}
	}
	return out
}

// planRequests derives the full request sequence from the seed.
func planRequests(o LoadOptions) []request {
	endpoints := make([]string, 0, len(o.Mix))
	for ep := range o.Mix {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints) // map order must not leak into the plan
	var totalW float64
	for _, ep := range endpoints {
		totalW += o.Mix[ep]
	}
	src := rng.NewStream(o.Seed, 0x10ad)
	reqs := make([]request, o.Requests)
	for i := range reqs {
		pick := src.Float64() * totalW
		ep := endpoints[len(endpoints)-1]
		for _, cand := range endpoints {
			if pick < o.Mix[cand] {
				ep = cand
				break
			}
			pick -= o.Mix[cand]
		}
		variant := src.Intn(o.Unique)
		reqs[i] = request{endpoint: ep, url: o.BaseURL + endpointURL(ep, variant, o)}
	}
	return reqs
}

// endpointURL renders the variant-th parameter point of an endpoint.
// Variants sweep pd (and cycle protocols) so distinct variants are
// distinct cache keys.
func endpointURL(ep string, variant int, o LoadOptions) string {
	pd := 0.05 + 0.4*float64(variant)/float64(o.Unique)
	switch ep {
	case "predict":
		protos := []string{"arq", "counter", "delayed"}
		proto := protos[variant%len(protos)]
		pi := 0.0
		if proto == "counter" {
			pi = 0.05
		}
		return fmt.Sprintf("/v1/predict?proto=%s&n=4&pd=%g&pi=%g&delay=2", proto, pd, pi)
	case "simulate":
		protos := []string{"counter", "arq", "naive"}
		proto := protos[variant%len(protos)]
		pi := 0.0
		if proto != "arq" {
			pi = 0.02
		}
		injects := []string{"", "outage=0.2", "jam=0.1"}
		return fmt.Sprintf("/v1/simulate?proto=%s&n=4&pd=%g&pi=%g&symbols=2000&seed=%d&inject=%s",
			proto, pd, pi, variant+1, injects[variant%len(injects)])
	default: // bounds
		u := fmt.Sprintf("/v1/bounds?n=6&pd=%g&pi=0.05", pd)
		if o.ExactN > 0 {
			u += fmt.Sprintf("&exact_n=%d", o.ExactN)
		}
		return u
	}
}

// RunLoad executes a load run and aggregates the report. The request
// sequence is deterministic in the seed; workers consume it in order.
func RunLoad(o LoadOptions) (*LoadReport, error) {
	o = o.withDefaults()
	if o.BaseURL == "" {
		return nil, fmt.Errorf("capserver: load run needs a base URL")
	}
	plan := planRequests(o)
	report := &LoadReport{
		Status:     make(map[int]int),
		ByEndpoint: make(map[string]*Dist),
		ByCache:    make(map[string]*Dist),
	}
	var mu sync.Mutex
	work := make(chan request)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				t0 := time.Now()
				resp, err := o.Client.Get(req.url)
				lat := time.Since(t0)
				mu.Lock()
				report.Total++
				if err != nil {
					report.Errors++
					mu.Unlock()
					continue
				}
				report.Status[resp.StatusCode]++
				dist := report.ByEndpoint[req.endpoint]
				if dist == nil {
					dist = &Dist{}
					report.ByEndpoint[req.endpoint] = dist
				}
				dist.add(lat)
				if class := resp.Header.Get("X-Capserver-Cache"); class != "" && resp.StatusCode == http.StatusOK {
					cd := report.ByCache[class]
					if cd == nil {
						cd = &Dist{}
						report.ByCache[class] = cd
					}
					cd.add(lat)
				}
				mu.Unlock()
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}()
	}
	for _, req := range plan {
		work <- req
	}
	close(work)
	wg.Wait()
	report.Wall = time.Since(start)
	return report, nil
}

// Smoke exercises every endpoint once and verifies a 200 status and a
// well-formed JSON body (the `make serve-smoke` gate).
func Smoke(baseURL string, client *http.Client) error {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	checks := []struct {
		path string
		json bool
	}{
		{"/healthz", true},
		{"/v1/bounds?n=4&pd=0.2&pi=0.1", true},
		{"/v1/bounds?n=4&pd=0.2&exact_n=6&mc_n=12&mc_samples=2000&ba=1", true},
		{"/v1/predict?proto=delayed&n=4&pd=0.25&delay=2", true},
		{"/v1/simulate?proto=counter&n=4&pd=0.1&pi=0.02&symbols=2000&seed=7&inject=outage%3D0.2", true},
		{"/v1/experiments", true},
		{"/v1/experiments?id=E1&symbols=2000", true},
		{"/metrics", false},
	}
	var failures []string
	for _, c := range checks {
		resp, err := client.Get(baseURL + c.path)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.path, err))
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if rerr != nil {
			failures = append(failures, fmt.Sprintf("%s: read body: %v", c.path, rerr))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			failures = append(failures, fmt.Sprintf("%s: status %d", c.path, resp.StatusCode))
			continue
		}
		if c.json && !json.Valid(body) {
			failures = append(failures, fmt.Sprintf("%s: body is not valid JSON", c.path))
		}
	}
	if err := smokeSessions(baseURL, client); err != nil {
		failures = append(failures, err.Error())
	}
	if len(failures) > 0 {
		return fmt.Errorf("capserver: smoke failures:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// smokeSessions exercises the /v1/sessions surface: ingest an NDJSON
// batch, read the session back with bounds, list it. The batch starts
// after the session's current cursor so re-running Smoke against a
// long-lived server stays valid.
func smokeSessions(baseURL string, client *http.Client) error {
	const id = "smoke-session"
	last := int64(0)
	if resp, err := client.Get(baseURL + "/v1/sessions/" + id); err == nil {
		var prior struct {
			LastUse int64 `json:"last_use"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&prior); err == nil {
				last = prior.LastUse
			}
		}
		_ = resp.Body.Close()
	}
	var batch strings.Builder
	for i := int64(1); i <= 64; i++ {
		kind, rest := "T", fmt.Sprintf(`"s":3,"r":3`)
		if i%16 == 0 {
			kind, rest = "D", `"s":3`
		}
		fmt.Fprintf(&batch, `{"u":%d,"k":%q,%s}`+"\n", last+i, kind, rest)
	}
	resp, err := client.Post(baseURL+"/v1/sessions/"+id+"/events", "application/x-ndjson", strings.NewReader(batch.String()))
	if err != nil {
		return fmt.Errorf("POST /v1/sessions/%s/events: %w", id, err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/sessions/%s/events: status %d: %s", id, resp.StatusCode, body)
	}
	var ingest SessionIngestResponse
	if err := json.Unmarshal(body, &ingest); err != nil || ingest.Applied != 64 {
		return fmt.Errorf("POST /v1/sessions/%s/events: applied %d err %v", id, ingest.Applied, err)
	}
	resp, err = client.Get(baseURL + "/v1/sessions/" + id)
	if err != nil {
		return fmt.Errorf("GET /v1/sessions/%s: %w", id, err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/sessions/%s: status %d: %s", id, resp.StatusCode, body)
	}
	var got SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("GET /v1/sessions/%s: %v", id, err)
	}
	if got.Estimate.Uses < 64 || len(got.Bounds) == 0 {
		return fmt.Errorf("GET /v1/sessions/%s: uses=%d bounds=%dB (skipped %q)",
			id, got.Estimate.Uses, len(got.Bounds), got.BoundsSkipped)
	}
	resp, err = client.Get(baseURL + "/v1/sessions?limit=10")
	if err != nil {
		return fmt.Errorf("GET /v1/sessions: %w", err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		return fmt.Errorf("GET /v1/sessions: status %d", resp.StatusCode)
	}
	return nil
}
