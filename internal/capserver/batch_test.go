package capserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
)

// postJSON posts a body to a path and returns status, headers and body.
func postJSON(t *testing.T, base, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, out
}

func TestBatchBoundsBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, body := postJSON(t, ts.URL, "/v1/bounds:batch",
		`{"points":[{"n":4,"pd":0.2,"pi":0.1},{"n":6,"pd":0.1},{"n":4,"pd":0.25,"sync_capacity":100}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Points != 3 || resp.Succeeded != 3 || resp.Failed != 0 {
		t.Fatalf("envelope counts %+v, want 3/3/0", resp)
	}
	for i, pr := range resp.Results {
		if !pr.OK || pr.Error != "" {
			t.Fatalf("point %d failed: %+v", i, pr)
		}
		var br BoundsResponse
		if err := json.Unmarshal(pr.Result, &br); err != nil {
			t.Fatalf("point %d: result not a BoundsResponse: %v", i, err)
		}
	}
	// The third point asked for the Section 4.4 degradation block.
	var br BoundsResponse
	if err := json.Unmarshal(resp.Results[2].Result, &br); err != nil {
		t.Fatal(err)
	}
	if br.Degraded == nil || br.Degraded.Corrected != 75 {
		t.Errorf("degraded block = %+v, want corrected 75", br.Degraded)
	}
}

// TestBatchCanonicalizationSharesCache is the tentpole cache contract:
// a batch point is canonicalized exactly like a single GET /v1/bounds
// request, so the two endpoints populate and hit the same LRU lines.
func TestBatchCanonicalizationSharesCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// Batch of one computes the point...
	status, _, body := postJSON(t, ts.URL, "/v1/bounds:batch", `{"points":[{"n":4,"pd":0.3}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 1 {
		t.Fatalf("batch envelope %+v, want 1 success", resp)
	}
	if got := srv.Metrics().ComputeCalls("bounds"); got != 1 {
		t.Fatalf("compute calls after batch = %d, want 1", got)
	}

	// ...and a textual GET variant of the same parameters is a cache hit
	// with a byte-identical (modulo framing newline) result.
	status, hdr, single := get(t, ts.URL, "/v1/bounds?n=4&pd=0.30&pi=0")
	if status != http.StatusOK {
		t.Fatalf("GET status %d: %s", status, single)
	}
	if got := hdr.Get("X-Capserver-Cache"); got != "hit" {
		t.Errorf("cross-endpoint repeat cache class %q, want hit", got)
	}
	if got := srv.Metrics().ComputeCalls("bounds"); got != 1 {
		t.Errorf("compute calls after GET = %d, want still 1", got)
	}
	if want := bytes.TrimSpace(single); !bytes.Equal([]byte(resp.Results[0].Result), want) {
		t.Errorf("batch result differs from single-request body:\n%s\nvs\n%s", resp.Results[0].Result, want)
	}

	// The reverse direction holds too: a fresh point computed via GET is
	// served from cache when it reappears inside a batch.
	get(t, ts.URL, "/v1/bounds?n=6&pd=0.15")
	calls := srv.Metrics().ComputeCalls("bounds")
	status, _, body = postJSON(t, ts.URL, "/v1/bounds:batch", `{"points":[{"n":6,"pd":0.15}]}`)
	if status != http.StatusOK {
		t.Fatalf("second batch status %d: %s", status, body)
	}
	if got := srv.Metrics().ComputeCalls("bounds"); got != calls {
		t.Errorf("batch recomputed a cached point: %d -> %d compute calls", calls, got)
	}
}

// TestBatchPartialFailureEnvelope mixes valid and invalid points: the
// batch answers 200 with per-point verdicts in request order.
func TestBatchPartialFailureEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := postJSON(t, ts.URL, "/v1/bounds:batch",
		`{"points":[{"n":4,"pd":0.2},{"n":17,"pd":0.2},{"pd":0.6,"pi":0.6},{"n":8,"pd":0.05},[1,2]]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Points != 5 || resp.Succeeded != 2 || resp.Failed != 3 {
		t.Fatalf("envelope counts %d/%d/%d, want 5/2/3", resp.Points, resp.Succeeded, resp.Failed)
	}
	wantOK := []bool{true, false, false, true, false}
	for i, pr := range resp.Results {
		if pr.OK != wantOK[i] {
			t.Errorf("point %d ok=%v, want %v (%+v)", i, pr.OK, wantOK[i], pr)
		}
		if !pr.OK && pr.Error == "" {
			t.Errorf("point %d failed without an error string", i)
		}
		if pr.Retryable {
			t.Errorf("point %d marked retryable: validation errors never are", i)
		}
	}
}

// TestBatchBodyMatchesMarshal is the differential test for the
// appended envelope: on generated envelopes, batchBody's bytes must
// equal marshalBody's. Points mix successes (served bounds bodies and
// marshaled values whose strings needed escaping), validation failures
// and retryable rejections, with error strings that need encoding/json's
// HTML, quote, control-character, U+2028/U+2029 and invalid-UTF-8
// handling, up to a full 256-point envelope.
func TestBatchBodyMatchesMarshal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var results []json.RawMessage
	for _, path := range []string{
		"/v1/bounds?n=4&pd=0.2",
		"/v1/bounds?n=6&pd=0.1&pi=0.05&exact_n=6&mc_n=8&mc_samples=200&ba=1",
	} {
		status, _, body := get(t, ts.URL, path)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, body)
		}
		results = append(results, bytes.TrimSpace(body))
	}
	for _, v := range []any{
		map[string]string{"note": "<a href=\"x\">&amp;</a> \u2028\u2029 \xff"},
		[]float64{1e-21, 0.1, 123456789, -0.5},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, b)
	}
	errs := []string{
		`parameter n must be in [1,16], got "17"`,
		"<script>alert(1)</script> & more",
		"quote \" backslash \\ tab \t newline \n",
		"separators \u2028 and \u2029",
		"invalid \xff\xfe UTF-8 \xc3",
		"control \x00\x01\x1f\x7f",
		"unicode é 😀",
	}
	gen := rng.New(34)
	envelope := func(points int) BatchResponse {
		resp := BatchResponse{Points: points, Results: make([]BatchPointResult, points)}
		for i := range resp.Results {
			switch gen.Intn(3) {
			case 0:
				resp.Results[i] = BatchPointResult{OK: true, Result: results[gen.Intn(len(results))]}
				resp.Succeeded++
			case 1:
				resp.Results[i] = BatchPointResult{Error: errs[gen.Intn(len(errs))]}
				resp.Failed++
			default:
				resp.Results[i] = BatchPointResult{Error: errQueueFull.Error(), Retryable: true}
				resp.Failed++
			}
		}
		return resp
	}
	check := func(resp BatchResponse) {
		t.Helper()
		want, err := marshalBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := batchBody(resp); !bytes.Equal(got, want) {
			t.Fatalf("batchBody:\n%s\nmarshalBody:\n%s", got, want)
		}
	}
	for points := 1; points <= 8; points++ {
		for k := 0; k < 50; k++ {
			check(envelope(points))
		}
	}
	check(envelope(maxBatchPoints))
	// Fields the handler never sets together still follow the tags.
	check(BatchResponse{Points: 2, Succeeded: 1, Failed: 1, Results: []BatchPointResult{
		{OK: true, Result: results[0], Error: errs[1], Retryable: true}, {},
	}})
}

func TestBatchValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	overLimit := `{"points":[` + strings.Repeat(`{"n":4},`, maxBatchPoints) + `{"n":4}]}`
	for _, tc := range []struct{ name, body string }{
		{"malformed", `{"points":[`},
		{"empty", `{"points":[]}`},
		{"missing", `{}`},
		{"over limit", overLimit},
	} {
		status, _, body := postJSON(t, ts.URL, "/v1/bounds:batch", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, body)
		}
	}
}

// TestBatchBackpressure saturates a 1-worker, depth-1 pool with slow
// single requests, then posts a batch of fresh points: every point is
// rejected by the queue, so the whole batch is a 429 with Retry-After.
func TestBatchBackpressure(t *testing.T) {
	// Computations of n=6 points park in the store's Put until release.
	srv, ts, st := newParkedServer(t, Config{Workers: 1, QueueDepth: 1}, "?n=6&")
	// A point computed before the pool saturates is served from the
	// cache while fresh points are rejected: hits never wait on the pool.
	const cached = "/v1/bounds?n=4&pd=0.44"
	if status, _, body := get(t, ts.URL, cached); status != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", status, body)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct parked computations occupy the worker and the
			// queue until release.
			get(t, ts.URL, fmt.Sprintf("/v1/bounds?n=6&pd=0.%d", 31+i))
		}(i)
	}
	st.awaitParked(t)
	if !waitFor(func() bool { return srv.pool.depth() == 1 }) {
		t.Fatal("the second computation never reached the queue")
	}

	status, hdr, body := postJSON(t, ts.URL, "/v1/bounds:batch",
		`{"points":[{"n":4,"pd":0.41},{"n":4,"pd":0.42},{"n":4,"pd":0.43}]}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated batch status %d, want 429 (body %s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 batch carried no Retry-After header")
	}
	if status, hdr, body := get(t, ts.URL, cached); status != http.StatusOK || hdr.Get("X-Capserver-Cache") != "hit" {
		t.Errorf("cached point under saturation: status %d, cache %q, want 200 hit (body %s)",
			status, hdr.Get("X-Capserver-Cache"), body)
	}
	st.release()
	wg.Wait()

	// Once the pool drains, the batch succeeds — possibly over two
	// attempts, because 3 concurrent points can still outnumber a
	// 1-worker depth-1 pool for an instant. Per-point failures are
	// marked retryable, and retrying is the documented client
	// contract: already-computed points come back as cache hits, so
	// the retry only pays for the rejected point.
	var resp BatchResponse
	for attempt := 0; ; attempt++ {
		status, _, body = postJSON(t, ts.URL, "/v1/bounds:batch",
			`{"points":[{"n":4,"pd":0.41},{"n":4,"pd":0.42},{"n":4,"pd":0.43}]}`)
		if status != http.StatusOK {
			t.Fatalf("post-drain batch status %d: %s", status, body)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Succeeded == 3 || attempt == 3 {
			break
		}
		for _, r := range resp.Results {
			if !r.OK && !r.Retryable {
				t.Fatalf("post-drain point failed non-retryably: %+v", r)
			}
		}
	}
	if resp.Succeeded != 3 {
		t.Errorf("post-drain envelope %+v, want 3 successes", resp)
	}
}

// TestSubSecondRetryAfterClamp is the HTTP-level regression test for the
// Retry-After hint: every 429 must say "Retry-After: 1", never "0"
// (which clients read as retry-immediately, defeating the backpressure
// the header exists to apply).
func TestSubSecondRetryAfterClamp(t *testing.T) {
	// The first computation parks in the store's Put and holds the only
	// worker until a rejection has come back.
	srv, ts, st := newParkedServer(t, Config{Workers: 1, QueueDepth: 1}, "")
	const clients = 12
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		rejections int
		headers    = map[string]int{}
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/v1/bounds?n=6&pd=0.%02d", 50+i)
			status, hdr, _ := get(t, ts.URL, path)
			if status == http.StatusTooManyRequests {
				mu.Lock()
				rejections++
				headers[hdr.Get("Retry-After")]++
				mu.Unlock()
			}
		}(i)
	}
	waitFor(func() bool { return srv.Metrics().QueueRejected() > 0 })
	st.release()
	wg.Wait()
	if rejections == 0 {
		t.Fatal("no 429s out of 12 clients on a depth-1 queue")
	}
	if headers["1"] != rejections {
		t.Errorf("Retry-After headers %v, want %d × \"1\"", headers, rejections)
	}
}
