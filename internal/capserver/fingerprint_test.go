package capserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

// baDigests records, per GOARCH, the SHA-256 of the bodies served for
// baProbes, in probe order. The Go spec lets a compiler fuse x*y+z into
// one rounding, and gc does so on arm64, so a digest holds only on the
// architecture that recorded it.
var baDigests = map[string]string{
	"amd64": "060c9848c27e692fd14ea521922631237d7543f7aac0581bf52637d6d8e9718e",
}

// baProbes returns the Blahut–Arimoto probe set: GET /v1/bounds with
// ba at n = 1, 4, 8 and 12 over a Pi sweep, one solve at ba_tol=1e-300
// (only a zero gap or the 3-iteration cap stops it, so it updates the
// input distribution), and one POST /v1/bounds:batch body of the
// cold-grid benchmark's shape (16 points, n in {4, 6, 8}, every fourth
// point with a Monte-Carlo deletion rate). Pi = 1 never consumes input
// and fails parameter validation, so the sweep tops out at 0.999.
func baProbes() (gets []string, batch string) {
	for _, n := range []int{1, 4, 8, 12} {
		for _, pi := range []string{"0", "0.05", "0.3", "0.999"} {
			gets = append(gets, fmt.Sprintf("/v1/bounds?n=%d&pd=0&pi=%s&ps=0.01&ba=true", n, pi))
		}
	}
	gets = append(gets, "/v1/bounds?n=8&pd=0.1&pi=0.2&ba=true&ba_tol=1e-300&ba_iters=3")

	src := rng.New(3)
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"n":%d,"pd":%.7f,"pi":%.3f,"ps":%.3f,"ba":true`,
			4+2*src.Intn(3), 0.02+0.2*src.Float64(), 0.3*src.Float64(), 0.2*src.Float64())
		if i%4 == 3 {
			b.WriteString(`,"mc_n":12,"mc_samples":2000`)
		}
		b.WriteByte('}')
	}
	b.WriteString(`]}`)
	return gets, b.String()
}

// TestBlahutArimotoFingerprint pins the bytes the service serves for
// Blahut–Arimoto cross-checks: a kernel change that moves one bit of
// one capacity, gap or iteration count changes the digest.
func TestBlahutArimotoFingerprint(t *testing.T) {
	want, ok := baDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no digest recorded for GOARCH=%s", runtime.GOARCH)
	}
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	sum := sha256.New()
	serve := func(req *http.Request) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d, body %s", req.Method, req.URL, rec.Code, rec.Body)
		}
		sum.Write(rec.Body.Bytes())
		return rec.Body.String()
	}
	gets, batch := baProbes()
	for _, p := range gets {
		serve(httptest.NewRequest(http.MethodGet, p, nil))
	}
	if body := serve(httptest.NewRequest(http.MethodPost, "/v1/bounds:batch", strings.NewReader(batch))); !strings.Contains(body, `"failed":0,`) {
		t.Fatalf("batch has failed points: %.300s", body)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("served Blahut–Arimoto bytes changed on %s: digest %s, recorded %s", runtime.GOARCH, got, want)
	}
}
