package capserver

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/health"
)

// The health surface wires the deterministic alert engine
// (internal/health) into the serving core. Every tick samples the
// server's whole registry into the engine's snapshot ring and
// re-evaluates the rules; GET /v1/health/alerts serves the current
// verdict. The tick either runs on a background ticker (HealthTick > 0,
// the daemon's mode) or is driven explicitly through TickHealth (tests,
// harnesses, capwatch's -once mode), which is what makes alert
// timelines reproducible: with an injected tick sequence the engine
// sees the exact same snapshots in the exact same order every run.

// initHealth builds the alert engine and registers its route. Called
// from New after the metric families and session store exist, so the
// first snapshot already contains every family rules reference.
func (s *Server) initHealth() {
	rules := s.cfg.HealthRules
	if rules == nil {
		rules = health.MustDefaultRules()
	}
	tick := s.cfg.HealthTick
	if tick <= 0 {
		// No background ticker; 5s is still the window-conversion base
		// so rule durations mean the same thing as in a live deployment.
		tick = 5 * time.Second
	}
	eng, err := health.NewEngine(health.Config{
		Rules:        rules,
		TickInterval: tick,
		StateGauge:   health.StateGaugeVec(s.metrics.Registry()),
	})
	if err != nil {
		// Defaults never fail; user-supplied rules are pre-validated by
		// the daemon before Config is built (see Config.HealthRules).
		panic(fmt.Sprintf("capserver: health engine: %v", err))
	}
	s.health = eng
	s.mux.HandleFunc("GET /v1/health/alerts", s.handleHealthAlerts)
	s.startHealthTicker()
}

// startHealthTicker runs TickHealth on a ticker when HealthTick is
// positive; otherwise ticks only happen on demand.
func (s *Server) startHealthTicker() {
	if s.cfg.HealthTick <= 0 {
		s.stopHealth = func() {}
		return
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(s.cfg.HealthTick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.TickHealth()
			case <-done:
				return
			}
		}
	}()
	s.stopHealth = func() {
		close(done)
		<-stopped
	}
}

// TickHealth samples the registry into the engine and evaluates every
// rule, returning the state transitions this tick produced. The cache
// and queue gauges are synced first so the snapshot reflects live
// state, exactly as /metrics would render it.
func (s *Server) TickHealth() []health.Transition {
	s.metrics.sync(s.cache.stats(), s.pool.depth())
	return s.health.Tick(s.metrics.Registry().Snapshot())
}

// Health returns the server's alert engine (tests and the cluster
// harness read its transition log).
func (s *Server) Health() *health.Engine { return s.health }

// handleHealthAlerts serves the current alert verdict as JSON with
// stable ordering (rules sorted by name), so two polls in the same
// engine state are byte-identical.
func (s *Server) handleHealthAlerts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := marshalBody(s.health.Alerts())
	if err != nil {
		s.finish(w, "health.alerts", start, http.StatusInternalServerError, errorBody(err), "")
		return
	}
	s.finish(w, "health.alerts", start, http.StatusOK, body, "")
}
