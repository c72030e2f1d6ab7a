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

// fingerprintVersion is the resultsVersion the digests below were
// recorded under. A change to served bytes must bump resultsVersion
// (stored bodies are keyed by it) and re-record the digests, so the
// test fails when either moves alone.
const fingerprintVersion = "results/3"

// fingerprintDigests records, per GOARCH, the SHA-256 of the bodies
// each probe group serves, in probe order. The Go spec lets a compiler
// fuse x*y+z into one rounding, and gc does so on arm64, so a digest
// holds only on the architecture that recorded it.
var fingerprintDigests = map[string]map[string]string{
	"amd64": {
		"ba":          "060c9848c27e692fd14ea521922631237d7543f7aac0581bf52637d6d8e9718e",
		"bounds":      "7184078b720285ec2adfb0f929b483e5e8830b8a5cebdf5346de3923342cd539",
		"predict":     "acb02b73cf1b44f85678095e5ba13a2fdee9572e596e5713c9b2f89722010df0",
		"simulate":    "1e77fdca0724933bbcedd202bff00f2832c1086ed491759f0858fa64b2735194",
		"trace":       "d5f3db6842fecc956e39be1cfebe57e1c4afbd7c9471c34ca476bb5039923a8f",
		"batch":       "46b8a039f4ad99b421b6c20fb20c11d32a19e8212c2bc3b656b7edda09f6f1bb",
		"experiments": "d12b1f693b1b8f3ddabdba305222cd77017a6f2c22907b4ad143d6c47f819626",
		"sessions":    "98f7d608ef9c053ad35cc6433037db427583565d4d459aa048e1d3a3cffe51ad",
	},
}

// probe is one request of a fingerprint group.
type probe struct {
	method, path, body string
}

func getProbe(path string) probe { return probe{method: http.MethodGet, path: path} }

// baProbes returns the Blahut–Arimoto probe set: GET /v1/bounds with
// ba at n = 1, 4, 8 and 12 over a Pi sweep, one solve at ba_tol=1e-300
// (only a zero gap or the 3-iteration cap stops it, so it updates the
// input distribution), and one POST /v1/bounds:batch body of the
// cold-grid benchmark's shape (16 points, n in {4, 6, 8}, every fourth
// point with a Monte-Carlo deletion rate). Pi = 1 never consumes input
// and fails parameter validation, so the sweep tops out at 0.999.
func baProbes() []probe {
	var ps []probe
	for _, n := range []int{1, 4, 8, 12} {
		for _, pi := range []string{"0", "0.05", "0.3", "0.999"} {
			ps = append(ps, getProbe(fmt.Sprintf("/v1/bounds?n=%d&pd=0&pi=%s&ps=0.01&ba=true", n, pi)))
		}
	}
	ps = append(ps, getProbe("/v1/bounds?n=8&pd=0.1&pi=0.2&ba=true&ba_tol=1e-300&ba_iters=3"))

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
	return append(ps, probe{method: http.MethodPost, path: "/v1/bounds:batch", body: b.String()})
}

// supervisedProbes returns one /v1/simulate or /v1/trace request per
// protocol with a fault spec, plus an ARQ point and a delayed ARQ point
// whose outage fails every attempt of every chunk (the delayed point
// pins its ARQ attempt deadline).
func supervisedProbes(endpoint string) []probe {
	var ps []probe
	for _, q := range []string{
		"proto=arq&n=4&pd=0.1&delay=2&symbols=2000&seed=3&inject=outage%3D0.2",
		"proto=counter&n=4&pd=0.1&pi=0.05&symbols=2000&seed=3&inject=drift%3D0.1%3Bstuck%3D0.3",
		"proto=naive&n=4&pd=0.1&pi=0.05&symbols=2000&seed=3&inject=jam%3D0.1",
		"proto=delayed&n=4&pd=0.1&delay=2&symbols=2000&seed=3&inject=outage%3D0.2",
		"proto=arq&n=4&pd=0.3&symbols=2000&seed=2&delay=4&inject=outage%3D0.9",
		"proto=delayed&n=4&pd=0.3&symbols=2000&seed=2&delay=4&inject=outage%3D0.9",
	} {
		ps = append(ps, getProbe(endpoint+"?"+q))
	}
	return ps
}

// sessionProbes ingests one NDJSON batch (every tenth use a deletion,
// every seventh a substitution) and reads the session back.
func sessionProbes() []probe {
	var b strings.Builder
	for u := 1; u <= 2000; u++ {
		switch {
		case u%10 == 0:
			fmt.Fprintf(&b, `{"u":%d,"k":"D","s":5}`+"\n", u)
		case u%7 == 0:
			fmt.Fprintf(&b, `{"u":%d,"k":"S","s":5,"r":6}`+"\n", u)
		default:
			fmt.Fprintf(&b, `{"u":%d,"k":"T","s":5,"r":5}`+"\n", u)
		}
	}
	return []probe{
		{method: http.MethodPost, path: "/v1/sessions/fp-1/events", body: b.String()},
		getProbe("/v1/sessions/fp-1"),
	}
}

// probeGroup is the probe set of one endpoint family.
type probeGroup struct {
	name   string
	probes []probe
}

// fingerprintGroups returns the probe set, one group per endpoint
// family. Together they reach every endpoint and every kernel switch
// a body depends on.
func fingerprintGroups() []probeGroup {
	return []probeGroup{
		{"ba", baProbes()},
		{"bounds", []probe{
			getProbe("/v1/bounds?n=4&pd=0.1&pi=0.05&ps=0.02"),
			getProbe("/v1/bounds?n=8&pd=0.2&pi=0.1&exact_n=8"),
			getProbe("/v1/bounds?n=4&pd=0.1&mc_n=12&mc_samples=2000&seed=3"),
			getProbe("/v1/bounds?n=6&pd=0.3&sync_capacity=2.5"),
			getProbe("/v1/bounds?n=4&pd=1&exact_n=6&mc_n=6&mc_samples=100"),
			getProbe("/v1/bounds?n=4&pd=1&exact_n=6&mc_n=6&mc_samples=100&seed=0"),
		}},
		{"predict", []probe{
			getProbe("/v1/predict?proto=arq&n=4&pd=0.25"),
			getProbe("/v1/predict?proto=counter&n=4&pd=0.2&pi=0.1"),
			getProbe("/v1/predict?proto=delayed&n=4&pd=0.25&delay=3"),
		}},
		{"simulate", supervisedProbes("/v1/simulate")},
		{"trace", supervisedProbes("/v1/trace")},
		{"batch", []probe{{method: http.MethodPost, path: "/v1/bounds:batch", body: `{"points":[` +
			`{"n":4,"pd":0.1,"pi":0.05},{"n":6,"pd":"0.2","exact_n":6},` +
			`{"n":4,"pd":0.1,"mc_n":8,"mc_samples":500,"seed":9},` +
			`{"n":4,"pd":0.2,"sync_capacity":3},{"n":4,"pd":2}]}`}}},
		{"experiments", []probe{
			getProbe("/v1/experiments"),
			getProbe("/v1/experiments?id=E1,E2&symbols=2000&seed=5"),
		}},
		{"sessions", sessionProbes()},
	}
}

// TestServedFingerprint pins the bytes every endpoint serves for a
// fixed, seeded probe set, one digest per endpoint group: a change
// that moves one bit of one body fails it.
func TestServedFingerprint(t *testing.T) {
	if resultsVersion != fingerprintVersion {
		t.Fatalf("resultsVersion is %s but the digests were recorded under %s: re-record them", resultsVersion, fingerprintVersion)
	}
	want, ok := fingerprintDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no digests recorded for GOARCH=%s: the bytes are amd64-only by construction "+
			"(gc fuses x*y+z into one rounding on arm64, in core.ComputeBounds among others, "+
			"and math.Log is assembly only on amd64)", runtime.GOARCH)
	}
	s := New(Config{Workers: 2, SessionSweep: -1})
	defer s.Shutdown(context.Background())
	for _, g := range fingerprintGroups() {
		sum := sha256.New()
		for _, p := range g.probes {
			var req *http.Request
			if p.body == "" {
				req = httptest.NewRequest(p.method, p.path, nil)
			} else {
				req = httptest.NewRequest(p.method, p.path, strings.NewReader(p.body))
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %s %s: status %d, body %s", g.name, p.method, p.path, rec.Code, rec.Body)
			}
			sum.Write(rec.Body.Bytes())
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != want[g.name] {
			t.Errorf("served %s bytes changed on %s: digest %s, recorded %s", g.name, runtime.GOARCH, got, want[g.name])
		}
	}
}
