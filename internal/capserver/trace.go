package capserver

import (
	"bytes"
	"fmt"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
)

// buildTrace serves /v1/trace: the same seeded supervised run as
// /v1/simulate, executed under full channel-use tracing, summarized by
// the obs trace analyzer. The response reports the assumed Definition 1
// parameters next to the (Pd, Pi, Ps) estimate recovered from the
// recorded uses (with Wilson 95% intervals), and the capacity bounds
// implied by each — "assumed vs. observed" in one body. The body is a
// pure function of the echoed parameters, so it caches like every
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
		var traceBuf bytes.Buffer
		tr := obs.NewTracer(&traceBuf)
		res, _, err := r.run(tr)
		if err != nil {
			return nil, err
		}
		if err := tr.Close(); err != nil {
			return nil, err
		}
		sum, err := obs.ReadTrace(&traceBuf)
		if err != nil {
			return nil, err
		}
		est := sum.Estimate()

		assumed, err := core.ComputeBounds(p)
		if err != nil {
			return nil, err
		}
		resp := TraceResponse{
			Proto: r.proto, N: p.N, Pd: p.Pd, Pi: p.Pi, Ps: p.Ps, Delay: r.delay,
			Symbols: r.symbols, Seed: r.seed, Inject: inject,
			Status:         res.Status.String(),
			Events:         sum.Events,
			Uses:           res.Uses,
			InfoRatePerUse: res.InfoRatePerUse(),
			Estimate:       fromEstimate(est, sum.UseCounts),
			Assumed:        FromBounds(assumed),
			AssumedAgrees:  est.Contains(p.Pd, p.Pi, p.Ps),
			Chunks:         sum.Chunks,
			Attempts:       sum.Attempts,
			Retries:        sum.Retries,
			Resyncs:        sum.Resyncs,
			Recoveries:     sum.Recoveries,
			FailedChunks:   sum.FailedChunks,
			BackoffUses:    sum.BackoffUses,
		}
		// Feed the observed parameters back into the bound family. Fault
		// injection can push the empirical point outside the analytic
		// domain (an outage-heavy trace may observe Pd + Pi near 1);
		// in that case the observed bounds are honestly omitted.
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
