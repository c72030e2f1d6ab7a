package capserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzCanonicalize holds the router's key function to its contract on
// any raw query: it never panics, it is deterministic, and a request it
// refuses to place is one the handler answers 400 without computing.
// Only the refused side reaches the handler, so no kernel runs.
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		query    string
	}{
		{0, "n=4&pd=0.20&pi=0.1"},
		{0, "n=4&pd=0.2&exact_n=6&mc_n=12&mc_samples=2000&ba=1"},
		{0, "n=4&pd=0.25&sync_capacity=100"},
		{0, "n=8&pd=0.1&pi=0.2&ba=true&ba_tol=1e-300&ba_iters=3"},
		{0, "pd=NaN"}, {0, "pd=0.6&pi=0.6"}, {0, "n=16&ba=1"}, {0, "ba=1&ba_iters=2001"},
		{0, "seed=-1"}, {0, "sync_capacity=-1"}, {0, "pd=not-a-num"},
		{1, "proto=arq&n=4&pd=0.25"},
		{1, "proto=counter&n=4&pd=0.2&pi=0.1&delay=0"},
		{1, "proto=delayed&n=4&pd=0.25&delay=2"},
		{1, "proto=warp"}, {1, "proto=arq&pi=0.1"}, {1, "proto=arq&delay=65"},
		{2, "proto=counter&n=4&pd=0.1&symbols=2000&seed=7"},
		{2, "proto=arq&n=4&pd=0.3&symbols=2000&seed=2&delay=4&inject=outage=0.9"},
		{2, "proto=counter&inject=meteor%3D0.5"}, {2, "proto=counter&symbols=0"},
		{3, "proto=counter&n=4&pd=0.1&symbols=2000&seed=7&ps=0.05"},
		{3, "proto=naive&inject=drift%3D0.1%3Bstuck%3D0.3"},
		{4, "id=E1"}, {4, "id=E5,E1,E5"}, {4, "id=A1,%20E2&seed=0"},
		{4, "id=E999"}, {4, "id=E1&quanta=99999999"},
	} {
		f.Add(seed.endpoint, seed.query)
	}
	// The endpoints Canonicalize places, with the name their compute
	// counter carries.
	endpoints := []struct{ path, name string }{
		{"/v1/bounds", "bounds"},
		{"/v1/predict", "predict"},
		{"/v1/simulate", "simulate"},
		{"/v1/trace", "trace"},
		{"/v1/experiments", "experiments"},
	}
	s := New(Config{})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, endpoint uint8, query string) {
		ep := endpoints[int(endpoint)%len(endpoints)]
		req := httptest.NewRequest(http.MethodGet, ep.path, nil)
		req.URL.RawQuery = query
		key, ok := s.Canonicalize(req)
		if key2, ok2 := s.Canonicalize(req); key2 != key || ok2 != ok {
			t.Fatalf("%s?%s: Canonicalize gave (%q, %v), then (%q, %v)", ep.path, query, key, ok, key2, ok2)
		}
		if ok || (ep.name == "experiments" && req.URL.Query().Get("id") == "") {
			return // a placed request, or the catalog: not a refusal
		}
		calls := s.Metrics().ComputeCalls(ep.name)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s?%s: Canonicalize refused it, but the handler answered %d: %s", ep.path, query, rec.Code, rec.Body)
		}
		if got := s.Metrics().ComputeCalls(ep.name); got != calls {
			t.Fatalf("%s?%s: a refused request computed (%d -> %d calls)", ep.path, query, calls, got)
		}
	})
}

// FuzzBoundsBatch holds /v1/bounds:batch to its cache contract on any
// body: a point builds a key exactly when the GET /v1/bounds carrying
// the same name=value text canonicalizes, and then to the same key.
// The GET's text is read from the point independently of pointValues:
// a number's JSON literal, a string's value, true or false.
func FuzzBoundsBatch(f *testing.F) {
	for _, seed := range []string{
		`{"points":[{"n":4,"pd":0.3}]}`,
		`{"points":[{"n":6,"pd":0.15}]}`,
		`{"points":[{"n":4,"pd":0.2},{"n":99},{"pd":"x"},{"n":4,"pd":0.25,"sync_capacity":100}]}`,
		`{"points":[{"n":"4","pd":"0.20","ba":true},{"n":4.0},{"n":4,"mc_n":12,"mc_samples":2000,"seed":"7"}]}`,
		`{"points":[{"n":8,"pd":0.1000000,"pi":0.200,"ps":0.010,"ba":true,"mc_n":12,"mc_samples":2000}]}`,
		`{"points":[{"ba":1,"ba_iters":2001},{"seed":-1},{"pd":1e-1},{"n":null},{"n":[4]},7,null]}`,
	} {
		f.Add(seed)
	}
	s := New(Config{})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body string) {
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		dec.UseNumber()
		var req BatchRequest
		if dec.Decode(&req) != nil {
			return
		}
		for i, raw := range req.Points {
			var batchKey string
			q, err := pointValues(raw)
			if err == nil {
				batchKey, _, err = s.buildBounds(q)
			}
			vals, textOK := pointText(raw)
			var getKey string
			getOK := false
			if textOK {
				get := httptest.NewRequest(http.MethodGet, "/v1/bounds", nil)
				get.URL.RawQuery = vals.Encode()
				getKey, getOK = s.Canonicalize(get)
			}
			if (err == nil) != getOK {
				t.Fatalf("point %d %s: batch error %v, but GET ?%s canonicalizes %v", i, raw, err, vals.Encode(), getOK)
			}
			if getOK && "bounds?"+batchKey != getKey {
				t.Fatalf("point %d %s: batch key %q, GET key %q", i, raw, "bounds?"+batchKey, getKey)
			}
		}
	})
}

// pointText reads a batch point as the query a GET would send. It
// reports false when the point is no JSON object (null is the empty
// one) or holds a value that is no number, string or boolean.
func pointText(raw json.RawMessage) (url.Values, bool) {
	var m map[string]json.RawMessage
	if json.Unmarshal(raw, &m) != nil {
		return nil, false
	}
	vals := make(url.Values, len(m))
	for k, v := range m {
		v = bytes.TrimSpace(v)
		switch {
		case len(v) == 0:
			return nil, false
		case v[0] == '"':
			var s string
			if json.Unmarshal(v, &s) != nil {
				return nil, false
			}
			vals.Set(k, s)
		case v[0] == '-' || (v[0] >= '0' && v[0] <= '9'), string(v) == "true", string(v) == "false":
			vals.Set(k, string(v))
		default:
			return nil, false
		}
	}
	return vals, true
}
