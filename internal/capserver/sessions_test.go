package capserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postNDJSON posts an NDJSON batch and returns status and body.
func postNDJSON(t *testing.T, base, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestSessionIngestAndGet(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionSweep: -1})
	batch := func(from, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			u := from + i
			if u%10 == 0 {
				fmt.Fprintf(&sb, `{"u":%d,"k":"D","s":5}`+"\n", u)
			} else {
				fmt.Fprintf(&sb, `{"u":%d,"k":"T","s":5,"r":5}`+"\n", u)
			}
		}
		return sb.String()
	}
	status, body := postNDJSON(t, ts.URL, "/v1/sessions/chan-1/events", batch(1, 100))
	if status != http.StatusOK {
		t.Fatalf("ingest status %d: %s", status, body)
	}
	var ing SessionIngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Applied != 100 || ing.ID != "chan-1" || ing.LastUse != 100 {
		t.Fatalf("ingest response %+v", ing)
	}
	if ing.Estimate.Deletes != 10 || ing.Estimate.Transmits != 90 {
		t.Fatalf("estimate tallies %+v", ing.Estimate)
	}
	if ing.Status != "warmup" {
		t.Fatalf("status %q after 100 uses, want warmup", ing.Status)
	}

	code, _, body := get(t, ts.URL, "/v1/sessions/chan-1")
	if code != http.StatusOK {
		t.Fatalf("get status %d: %s", code, body)
	}
	var got SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Estimate != ing.Estimate {
		t.Fatalf("get estimate %+v != ingest estimate %+v", got.Estimate, ing.Estimate)
	}
	if len(got.Bounds) == 0 || got.BoundsSkipped != "" {
		t.Fatalf("bounds missing: source=%q skipped=%q", got.BoundsSource, got.BoundsSkipped)
	}
	var bounds BoundsResponse
	if err := json.Unmarshal(got.Bounds, &bounds); err != nil {
		t.Fatalf("embedded bounds: %v", err)
	}
	// The bounds are computed at the estimate quantized to 1e-3:
	// Pd-hat = 10/100 = 0.1 exactly.
	if bounds.Bounds.Pd != 0.1 || bounds.Bounds.N != 4 {
		t.Fatalf("bounds at %+v, want pd=0.1 n=4", bounds.Bounds)
	}
	// A second read hits the LRU line the first one populated.
	_, _, body = get(t, ts.URL, "/v1/sessions/chan-1")
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.BoundsSource != "hit" {
		t.Fatalf("second read bounds_source %q, want hit", got.BoundsSource)
	}

	if code, _, body := get(t, ts.URL, "/v1/sessions/nope"); code != http.StatusNotFound {
		t.Fatalf("missing session status %d: %s", code, body)
	}
}

func TestSessionIngestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionSweep: -1})
	ok := `{"u":1,"k":"T","s":1,"r":1}` + "\n"
	if status, body := postNDJSON(t, ts.URL, "/v1/sessions/e-1/events", ok); status != http.StatusOK {
		t.Fatalf("seed ingest status %d: %s", status, body)
	}
	// Stale batch: 409.
	if status, _ := postNDJSON(t, ts.URL, "/v1/sessions/e-1/events", ok); status != http.StatusConflict {
		t.Fatalf("stale batch status %d, want 409", status)
	}
	// Malformed line: 400 with the offending line number.
	bad := `{"u":2,"k":"T","s":1,"r":1}` + "\n" + `{"u":3,"k":"Q"}` + "\n"
	status, body := postNDJSON(t, ts.URL, "/v1/sessions/e-1/events", bad)
	if status != http.StatusBadRequest {
		t.Fatalf("bad line status %d: %s", status, body)
	}
	var errResp struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
	}
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Line != 2 {
		t.Fatalf("bad line response %s (err %v), want line 2", body, err)
	}
	// A symbol wider than the session.N-bit alphabet the served bounds
	// assume: 400 naming its line.
	wide := `{"u":2,"k":"T","s":15,"r":15}` + "\n" + `{"u":3,"k":"T","s":16,"r":16}` + "\n"
	status, body = postNDJSON(t, ts.URL, "/v1/sessions/e-1/events", wide)
	errResp.Line = 0
	if status != http.StatusBadRequest || json.Unmarshal(body, &errResp) != nil || errResp.Line != 2 ||
		!strings.Contains(errResp.Error, "16 out of [0, 15]") {
		t.Fatalf("wide symbol status %d: %s, want 400 naming line 2 and the range", status, body)
	}
	// The failed batches are atomic: use 2 did not land.
	code, _, body := get(t, ts.URL, "/v1/sessions/e-1")
	var got SessionResponse
	if code != http.StatusOK || json.Unmarshal(body, &got) != nil || got.LastUse != 1 {
		t.Fatalf("post-reject state code=%d last_use=%d, want 1", code, got.LastUse)
	}
	// Invalid ID: 400.
	if status, _ := postNDJSON(t, ts.URL, "/v1/sessions/bad%2Fid/events", ok); status != http.StatusBadRequest {
		t.Fatalf("invalid id status %d, want 400", status)
	}
	// Session cap: 503 with Retry-After.
	srv2 := New(Config{SessionSweep: -1, MaxSessions: 1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if status, _ := postNDJSON(t, ts2.URL, "/v1/sessions/only/events", ok); status != http.StatusOK {
		t.Fatalf("first session rejected (%d)", status)
	}
	resp, err := http.Post(ts2.URL+"/v1/sessions/over/events", "application/x-ndjson", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-cap status %d retry-after %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSessionBoundsSkipped pins the honest-omission contract: a
// session whose estimate falls outside the analytic domain still
// serves its snapshot, with the skip reason instead of bounds.
func TestSessionBoundsSkipped(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionSweep: -1})
	// All-insert stream: Pi-hat = 1, which Params.Validate rejects
	// (Pi = 1 never consumes input).
	var sb strings.Builder
	for u := 1; u <= 50; u++ {
		fmt.Fprintf(&sb, `{"u":%d,"k":"I","r":2}`+"\n", u)
	}
	if status, body := postNDJSON(t, ts.URL, "/v1/sessions/ins/events", sb.String()); status != http.StatusOK {
		t.Fatalf("ingest status %d: %s", status, body)
	}
	_, _, body := get(t, ts.URL, "/v1/sessions/ins")
	var got SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Bounds) != 0 || got.BoundsSkipped == "" {
		t.Fatalf("degenerate estimate produced bounds (skipped=%q)", got.BoundsSkipped)
	}
	if got.Estimate.Inserts != 50 {
		t.Fatalf("snapshot still served: %+v", got.Estimate)
	}
}

func TestSessionList(t *testing.T) {
	_, ts := newTestServer(t, Config{SessionSweep: -1})
	ev := `{"u":1,"k":"T","s":1,"r":1}` + "\n"
	for _, id := range []string{"l-c", "l-a", "l-b"} {
		if status, body := postNDJSON(t, ts.URL, "/v1/sessions/"+id+"/events", ev); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, status, body)
		}
	}
	var page SessionListResponse
	_, _, body := get(t, ts.URL, "/v1/sessions?limit=2")
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Sessions) != 2 || page.Sessions[0].ID != "l-a" || page.Sessions[1].ID != "l-b" || page.NextPageToken != "l-b" {
		t.Fatalf("page 1: %s", body)
	}
	var page2 SessionListResponse
	_, _, body = get(t, ts.URL, "/v1/sessions?limit=2&page_token="+page.NextPageToken)
	if err := json.Unmarshal(body, &page2); err != nil {
		t.Fatal(err)
	}
	if len(page2.Sessions) != 1 || page2.Sessions[0].ID != "l-c" || page2.NextPageToken != "" {
		t.Fatalf("page 2: %s", body)
	}
	// Paging parameters clamp rather than reject: limit<=0 falls back
	// to the default page size, a limit above the cap clamps to it, and
	// a page token past the end of the keyspace yields a well-formed
	// empty page. Only a malformed limit is a client error.
	for _, tc := range []struct {
		query    string
		sessions int
		next     string
	}{
		{"limit=0", 3, ""},
		{"limit=-5", 3, ""},
		{"limit=99999", 3, ""},
		{"limit=2&page_token=zzzzzzzz", 0, ""},
		{"page_token=" + strings.Repeat("z", 300), 0, ""},
		{"page_token=%21%21%21", 3, ""}, // "!!!" sorts below every ID
	} {
		code, _, body := get(t, ts.URL, "/v1/sessions?"+tc.query)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.query, code, body)
		}
		var p SessionListResponse
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if len(p.Sessions) != tc.sessions || p.NextPageToken != tc.next {
			t.Fatalf("%s: got %d sessions next=%q, want %d next=%q",
				tc.query, len(p.Sessions), p.NextPageToken, tc.sessions, tc.next)
		}
	}
	if code, _, _ := get(t, ts.URL, "/v1/sessions?limit=abc"); code != http.StatusBadRequest {
		t.Fatalf("limit=abc status %d, want 400", code)
	}
}

func TestSessionRouteID(t *testing.T) {
	cases := []struct {
		method, path string
		id           string
		ok           bool
	}{
		{"POST", "/v1/sessions/abc/events", "abc", true},
		{"GET", "/v1/sessions/abc", "abc", true},
		{"GET", "/v1/sessions", "", false},
		{"GET", "/v1/sessions/", "", false},
		{"POST", "/v1/sessions/abc", "", false},
		{"POST", "/v1/sessions//events", "", false},
		{"GET", "/v1/sessions/a/b", "", false},
		{"GET", "/v1/bounds", "", false},
		{"DELETE", "/v1/sessions/abc", "", false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(tc.method, tc.path, nil)
		id, ok := SessionRouteID(r)
		if id != tc.id || ok != tc.ok {
			t.Errorf("%s %s: got (%q,%v), want (%q,%v)", tc.method, tc.path, id, ok, tc.id, tc.ok)
		}
	}
}

// TestSessionCanonicalizeExcluded pins that session requests are not
// canonicalizable compute keys: they are stateful and route by session
// ownership, not by content hash.
func TestSessionCanonicalizeExcluded(t *testing.T) {
	srv, _ := newTestServer(t, Config{SessionSweep: -1})
	for _, path := range []string{"/v1/sessions", "/v1/sessions/abc"} {
		r := httptest.NewRequest("GET", path, nil)
		if key, ok := srv.Canonicalize(r); ok {
			t.Fatalf("%s canonicalized to %q", path, key)
		}
	}
}

// TestNegativeSessionTTLReachesStore pins capserverd's "negative =
// never": the server hands a negative SessionTTL to the session store
// unchanged, and the store never evicts at a negative TTL.
func TestNegativeSessionTTLReachesStore(t *testing.T) {
	srv, _ := newTestServer(t, Config{SessionSweep: -1, SessionTTL: -1})
	if ttl := srv.Sessions().TTL(); ttl >= 0 {
		t.Fatalf("session store TTL %v, want negative", ttl)
	}
}
