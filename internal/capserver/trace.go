package capserver

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
)

// buildTrace serves /v1/trace: the same seeded supervised run as
// /v1/simulate, with ps applied and every channel use tallied. The
// response embeds /v1/simulate's body for the run and adds the
// (Pd, Pi, Ps) estimate recovered from the tallies (with Wilson 95%
// intervals) and the capacity bounds at the assumed and at the
// estimated parameters — "assumed vs. observed" in one body. The body
// is a pure function of the echoed parameters, so it caches like every
// other endpoint.
func (s *Server) buildTrace(q queryValues) (string, func() ([]byte, error), error) {
	r, err := s.parseSimRun(q, true)
	if err != nil {
		return "", nil, err
	}
	p, inject := r.params, r.spec.String()
	key := fmt.Sprintf("proto=%s&n=%d&pd=%v&pi=%v&ps=%v&delay=%d&symbols=%d&seed=%d&inject=%s",
		r.proto, p.N, p.Pd, p.Pi, p.Ps, r.delay, r.symbols, r.seed, inject)
	compute := func() ([]byte, error) {
		sim, counts, err := r.run(true)
		if err != nil {
			return nil, err
		}
		est := counts.Estimate()
		assumed, err := core.ComputeBounds(p)
		if err != nil {
			return nil, err
		}
		resp := TraceResponse{
			SimulateResponse: sim,
			Ps:               p.Ps,
			Estimate:         fromEstimate(est, counts),
			AssumedAgrees:    est.Contains(p.Pd, p.Pi, p.Ps),
			Assumed:          FromBounds(assumed),
		}
		// Feed the observed parameters back into the bound family. Fault
		// injection can push the empirical point outside the analytic
		// domain (an outage-heavy run may observe Pd + Pi near 1); in
		// that case the observed bounds are honestly omitted.
		obsParams := channel.Params{N: p.N, Pd: est.Pd, Pi: est.Pi, Ps: est.Ps}
		if obsParams.Validate() == nil {
			observed, err := core.ComputeBounds(obsParams)
			if err == nil {
				ob := FromBounds(observed)
				resp.Observed = &ob
			}
		}
		return marshalBody(resp)
	}
	return key, compute, nil
}
