package capserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/session"
)

// The /v1/sessions surface is the streaming counterpart of /v1/trace:
// instead of tallying a seeded simulated run, clients stream per-use
// events into a live per-session estimator (internal/session) and read
// back the current (Pd, Pi, Ps) estimate, drift status, and — when the
// estimated point is inside the analytic domain — the capacity bounds
// at those estimates. Session state is mutable, so these handlers sit
// beside the cacheable compute core rather than inside it: ingest and
// snapshot reads go straight to the session store, and only the bounds
// enrichment of GET /v1/sessions/{id} routes through the shared
// LRU/singleflight path (s.do), keyed on the estimate quantized to
// 1e-3 so nearby sessions share cache lines.

// SessionSummaryJSON is the wire form of one live session's state:
// identity, supervision status, drift accounting, and the running
// estimate with Wilson 95% intervals.
type SessionSummaryJSON struct {
	ID      string `json:"id"`
	N       int    `json:"n"`
	Status  string `json:"status"`
	LastUse int64  `json:"last_use"`
	// Drifts counts detected change points; LastChangeUse is the use
	// index of the most recent one; Recoveries counts completed
	// post-drift re-baselines.
	Drifts        int64             `json:"drifts"`
	LastChangeUse int64             `json:"last_change_use,omitempty"`
	Recoveries    int64             `json:"recoveries,omitempty"`
	Estimate      TraceEstimateJSON `json:"estimate"`
}

// fromSnapshot converts a session snapshot into its wire form.
func fromSnapshot(snap session.Snapshot) SessionSummaryJSON {
	return SessionSummaryJSON{
		ID:            snap.ID,
		N:             session.N,
		Status:        string(snap.Status),
		LastUse:       snap.LastUse,
		Drifts:        snap.Drifts,
		LastChangeUse: snap.LastChangeUse,
		Recoveries:    snap.Recoveries,
		Estimate:      fromEstimate(snap.Estimate, snap.Counts),
	}
}

// SessionIngestResponse is the POST /v1/sessions/{id}/events response:
// how many events the batch applied plus the post-apply session state.
type SessionIngestResponse struct {
	Applied int `json:"applied"`
	SessionSummaryJSON
}

// SessionResponse is the GET /v1/sessions/{id} response: the summary
// plus, when the estimated parameters admit them, the capacity bounds
// at the estimate. Bounds carries a full BoundsResponse computed at
// the quantized estimate; BoundsSource is the serving class of that
// computation (hit/shared/store/miss); BoundsSkipped explains an
// omitted bounds block (too few events, estimate outside the analytic
// domain, or a transient compute failure) so consumers never confuse
// "not computable" with "zero".
type SessionResponse struct {
	SessionSummaryJSON
	Bounds        json.RawMessage `json:"bounds,omitempty"`
	BoundsSource  string          `json:"bounds_source,omitempty"`
	BoundsSkipped string          `json:"bounds_skipped,omitempty"`
}

// SessionListResponse is the GET /v1/sessions response page.
type SessionListResponse struct {
	Sessions []SessionSummaryJSON `json:"sessions"`
	// NextPageToken resumes the listing strictly after the last
	// returned ID; empty when the listing is exhausted.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// SessionRouteID extracts the session ID a request addresses, for the
// cluster router's ring placement: POST /v1/sessions/{id}/events and
// GET /v1/sessions/{id} are per-session (owned by exactly one node);
// everything else — including the GET /v1/sessions listing, which is
// node-local by design — reports ok=false. The ID is returned as it
// appears in the path; validation happens in the handler.
func SessionRouteID(r *http.Request) (id string, ok bool) {
	const prefix = "/v1/sessions/"
	if !strings.HasPrefix(r.URL.Path, prefix) {
		return "", false
	}
	rest := r.URL.Path[len(prefix):]
	switch r.Method {
	case http.MethodPost:
		id, found := strings.CutSuffix(rest, "/events")
		if !found || id == "" || strings.Contains(id, "/") {
			return "", false
		}
		return id, true
	case http.MethodGet:
		if rest == "" || strings.Contains(rest, "/") {
			return "", false
		}
		return rest, true
	}
	return "", false
}

// Sessions returns the server's session store, for the cluster layer
// (which routes per-session requests to their ring owner) and tests.
func (s *Server) Sessions() *session.Store { return s.sessions }

// initSessions builds the session store and registers the /v1/sessions
// routes. Session metric families register on the shared registry here
// rather than in newMetrics: the serving-core metrics page is golden-
// tested as a fixed set, and the session families are additive.
func (s *Server) initSessions() {
	ttl := s.cfg.SessionTTL
	if ttl < 0 {
		ttl = 0
	}
	store, err := session.NewStore(session.StoreConfig{
		TTL:         ttl,
		MaxSessions: s.cfg.MaxSessions,
		Metrics:     session.NewMetrics(s.metrics.Registry()),
	})
	if err != nil {
		// Unreachable: every field above is either defaulted or
		// sanitized, and the zero session.Config validates.
		panic(fmt.Sprintf("capserver: session store: %v", err))
	}
	s.sessions = store
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionIngest)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.startSessionJanitor()
}

// startSessionJanitor runs the idle-session eviction sweep on a ticker
// until Shutdown. SessionSweep < 0 disables it (tests drive EvictIdle
// directly for determinism).
func (s *Server) startSessionJanitor() {
	if s.cfg.SessionSweep < 0 {
		s.stopJanitor = func() {}
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(s.cfg.SessionSweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sessions.EvictIdle()
			case <-stop:
				return
			}
		}
	}()
	s.stopJanitor = func() {
		close(stop)
		<-done
	}
}

// sessionError maps a session-store error onto its HTTP status and
// JSON body. Decode failures report the first bad line number as a
// structured field so streaming clients can resume precisely.
func (s *Server) sessionError(w http.ResponseWriter, endpoint string, start time.Time, err error) {
	var de *session.DecodeError
	switch {
	case errors.As(err, &de):
		body, merr := marshalBody(struct {
			Error string `json:"error"`
			Line  int    `json:"line"`
		}{Error: de.Error(), Line: de.Line})
		if merr != nil {
			body = errorBody(err)
		}
		s.finish(w, endpoint, start, http.StatusBadRequest, body, "")
	case errors.Is(err, session.ErrOutOfOrder):
		s.finish(w, endpoint, start, http.StatusConflict, errorBody(err), "")
	case errors.Is(err, session.ErrTooManySessions):
		w.Header().Set("Retry-After", retryAfter)
		s.finish(w, endpoint, start, http.StatusServiceUnavailable, errorBody(err), "")
	case errors.Is(err, session.ErrNotFound):
		s.finish(w, endpoint, start, http.StatusNotFound, errorBody(err), "")
	default:
		s.finish(w, endpoint, start, http.StatusBadRequest, errorBody(err), "")
	}
}

// handleSessionIngest serves POST /v1/sessions/{id}/events: one NDJSON
// batch of per-use events, applied atomically to the session (created
// on first contact). Ingest is synchronous and bypasses the compute
// pool — it is O(batch) counter arithmetic, and routing it through the
// queue would let heavy bounds computations starve live estimation.
func (s *Server) handleSessionIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	applied, snap, err := s.sessions.Ingest(r.PathValue("id"), r.Body)
	if err != nil {
		s.sessionError(w, "sessions.ingest", start, err)
		return
	}
	body, merr := marshalBody(SessionIngestResponse{
		Applied:            applied,
		SessionSummaryJSON: fromSnapshot(snap),
	})
	if merr != nil {
		s.finish(w, "sessions.ingest", start, http.StatusInternalServerError, errorBody(merr), "")
		return
	}
	s.finish(w, "sessions.ingest", start, http.StatusOK, body, "")
}

// handleSessionGet serves GET /v1/sessions/{id}: the live snapshot
// enriched with capacity bounds at the estimated parameters, computed
// through the shared cache path.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	snap, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, "sessions.get", start, err)
		return
	}
	resp := SessionResponse{SessionSummaryJSON: fromSnapshot(snap)}
	resp.Bounds, resp.BoundsSource, resp.BoundsSkipped = s.sessionBounds(r, snap)
	body, merr := marshalBody(resp)
	if merr != nil {
		s.finish(w, "sessions.get", start, http.StatusInternalServerError, errorBody(merr), "")
		return
	}
	s.finish(w, "sessions.get", start, http.StatusOK, body, "")
}

// sessionBounds computes the capacity bounds at the session's current
// estimate via the shared LRU/singleflight/pool path, so concurrent
// sessions at nearby parameter points share cache lines. The estimate
// is quantized to 1e-3 before keying: the Wilson intervals at any
// useful sample size are far wider than the quantum, and quantization
// collapses the key space enough for the LRU to be effective.
func (s *Server) sessionBounds(r *http.Request, snap session.Snapshot) (bounds json.RawMessage, source, skipped string) {
	if snap.Estimate.Uses == 0 {
		return nil, "", "no events yet"
	}
	q := func(p float64) float64 { return math.Round(p*1000) / 1000 }
	params := channel.Params{N: session.N, Pd: q(snap.Estimate.Pd), Pi: q(snap.Estimate.Pi), Ps: q(snap.Estimate.Ps)}
	if err := params.Validate(); err != nil {
		return nil, "", fmt.Sprintf("estimate outside analytic domain: %v", err)
	}
	v := url.Values{}
	v.Set("n", strconv.Itoa(params.N))
	v.Set("pd", strconv.FormatFloat(params.Pd, 'g', -1, 64))
	v.Set("pi", strconv.FormatFloat(params.Pi, 'g', -1, 64))
	v.Set("ps", strconv.FormatFloat(params.Ps, 'g', -1, 64))
	key, compute, err := s.buildBounds(queryValues{v})
	if err != nil {
		return nil, "", fmt.Sprintf("estimate outside analytic domain: %v", err)
	}
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	body, src, _, err := s.do(ctx, "bounds", "bounds?"+key, compute)
	if err != nil {
		// The snapshot is still good; report why the enrichment is
		// missing instead of failing the whole read.
		return nil, "", fmt.Sprintf("bounds unavailable: %v", err)
	}
	// marshalBody newline-terminates cached bodies; trim for embedding.
	return json.RawMessage(strings.TrimSuffix(string(body), "\n")), src, ""
}

// handleSessionList serves GET /v1/sessions: node-local paged
// summaries in ascending ID order. Parameters: limit (default 100,
// max 1000) and page_token (the previous page's next_page_token).
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := queryValues{r.URL.Query()}
	// Paging parameters are lenient where compute parameters are strict:
	// a limit of 0, a negative limit, or one above the 1000 cap clamps
	// to a sane page size, and the page token is an opaque cursor — a
	// token past the end of the keyspace (or one that was never a valid
	// session ID) simply compares above every live ID and yields a
	// well-formed empty page. Listing is an operator surface; only a
	// malformed (non-integer) limit is a client error.
	limit := 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			s.finish(w, "sessions.list", start, http.StatusBadRequest,
				errorBody(fmt.Errorf("capserver: limit %q is not an integer", raw)), "")
			return
		}
		switch {
		case n <= 0:
			limit = 100
		case n > 1000:
			limit = 1000
		default:
			limit = n
		}
	}
	snaps, next := s.sessions.List(q.Get("page_token"), limit)
	out := SessionListResponse{Sessions: make([]SessionSummaryJSON, len(snaps)), NextPageToken: next}
	for i, snap := range snaps {
		out.Sessions[i] = fromSnapshot(snap)
	}
	body, merr := marshalBody(out)
	if merr != nil {
		s.finish(w, "sessions.list", start, http.StatusInternalServerError, errorBody(merr), "")
		return
	}
	s.finish(w, "sessions.list", start, http.StatusOK, body, "")
}
