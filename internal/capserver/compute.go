package capserver

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/delcap"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

// The compute kernels below follow one contract: the build* function
// validates every parameter at the boundary and returns (canonical
// cache key, deferred computation). The canonical key is built from
// the *parsed* values, so textual variants of one request ("0.20" vs
// "0.2", defaulted vs explicit parameters) share a cache line. A
// parameter the body does not read is still validated, so a malformed
// value answers 400, but keyed at its default, so setting it does not
// split the line. The deferred computation is a pure function of those
// values.

// Defaults of the /v1/bounds parameters its key can ignore. The
// default ba_iters is also its cap: no request may buy a solve more
// iterations than a default request may already spend.
const (
	defaultMCSamples = 20000
	defaultSeed      = 1
	defaultBATol     = 1e-9
	defaultBAIters   = 2000
)

// buildBounds serves /v1/bounds: the paper's analytic bound family
// (core.ComputeBounds), the Section 4.4 degradation, the no-feedback
// deletion-channel rates of package delcap (exact enumeration and
// Monte-Carlo), and a Blahut–Arimoto cross-check of the converted
// channel.
func (s *Server) buildBounds(q queryValues) (string, func() ([]byte, error), error) {
	n, err := q.intParam("n", 4, 1, 16)
	if err != nil {
		return "", nil, err
	}
	pd, err := q.floatParam("pd", 0)
	if err != nil {
		return "", nil, err
	}
	pi, err := q.floatParam("pi", 0)
	if err != nil {
		return "", nil, err
	}
	ps, err := q.floatParam("ps", 0)
	if err != nil {
		return "", nil, err
	}
	params := channel.Params{N: n, Pd: pd, Pi: pi, Ps: ps}
	if err := params.Validate(); err != nil {
		return "", nil, err
	}
	exactN, err := q.intParam("exact_n", 0, 0, 12)
	if err != nil {
		return "", nil, err
	}
	mcN, err := q.intParam("mc_n", 0, 0, 20)
	if err != nil {
		return "", nil, err
	}
	mcSamples, err := q.intParam("mc_samples", defaultMCSamples, 1, 5_000_000)
	if err != nil {
		return "", nil, err
	}
	seed, err := q.uint64Param("seed", defaultSeed)
	if err != nil {
		return "", nil, err
	}
	ba, err := q.boolParam("ba", false)
	if err != nil {
		return "", nil, err
	}
	if ba && n > 12 {
		return "", nil, fmt.Errorf("parameter ba requires n <= 12 (alphabet 2^n), got n=%d", n)
	}
	baTol, err := q.floatParam("ba_tol", defaultBATol)
	if err != nil {
		return "", nil, err
	}
	if baTol <= 0 {
		return "", nil, fmt.Errorf("parameter ba_tol=%v must be positive", baTol)
	}
	baIters, err := q.intParam("ba_iters", defaultBAIters, 1, defaultBAIters)
	if err != nil {
		return "", nil, err
	}
	syncCapSet := q.Get("sync_capacity") != ""
	syncCap, err := q.floatParam("sync_capacity", 0)
	if err != nil {
		return "", nil, err
	}
	if syncCapSet && syncCap < 0 {
		return "", nil, fmt.Errorf("parameter sync_capacity=%v must be non-negative", syncCap)
	}
	// Only the Monte-Carlo rate reads seed and mc_samples, and only the
	// BA cross-check reads ba_tol and ba_iters.
	if mcN == 0 {
		mcSamples, seed = defaultMCSamples, defaultSeed
	}
	if !ba {
		baTol, baIters = defaultBATol, defaultBAIters
	}

	key := fmt.Sprintf("n=%d&pd=%v&pi=%v&ps=%v&exact_n=%d&mc_n=%d&mc_samples=%d&seed=%d&ba=%t&ba_tol=%v&ba_iters=%d&sync_set=%t&sync=%v",
		n, pd, pi, ps, exactN, mcN, mcSamples, seed, ba, baTol, baIters, syncCapSet, syncCap)
	compute := func() ([]byte, error) {
		b, err := core.ComputeBounds(params)
		if err != nil {
			return nil, err
		}
		resp := BoundsResponse{Bounds: FromBounds(b)}
		if syncCapSet {
			corrected, err := core.Degrade(syncCap, pd)
			if err != nil {
				return nil, err
			}
			resp.Degraded = &DegradeJSON{TraditionalEstimate: syncCap, Pd: pd, Corrected: corrected}
		}
		if exactN > 0 || mcN > 0 {
			del := &DeletionRatesJSON{
				Pd:            pd,
				GallagerLower: delcap.GallagerLowerBound(pd),
				ErasureUpper:  core.DeletionUpperBoundTrivial(pd),
			}
			if exactN > 0 {
				rate, err := delcap.ExactUniformRate(exactN, pd)
				if err != nil {
					return nil, err
				}
				del.ExactN, del.ExactRate = exactN, &rate
			}
			if mcN > 0 {
				rate, err := delcap.MonteCarloUniformRate(mcN, pd, mcSamples, rng.New(seed))
				if err != nil {
					return nil, err
				}
				del.MCN, del.MCSamples, del.MCSeed, del.MCRate = mcN, mcSamples, &seed, &rate
			}
			resp.Deletion = del
		}
		if ba {
			dmc, err := core.ConvertedChannelDMC(n, pi)
			if err != nil {
				return nil, err
			}
			cr, err := dmc.Capacity(baTol, baIters)
			if err != nil {
				return nil, err
			}
			resp.BlahutArimoto = &BlahutArimotoJSON{Capacity: cr.Capacity, Iterations: cr.Iterations, Gap: cr.Gap}
		}
		return marshalBody(resp)
	}
	return key, compute, nil
}

// buildPredict serves /v1/predict: the analytic rate a protocol is
// predicted to achieve at a parameter point — Theorem 3's N(1-Pd) for
// ARQ, the Theorem 5 counter rates, and N(1-Pd)/(1+delay) for ARQ with
// a feedback delay.
func (s *Server) buildPredict(q queryValues) (string, func() ([]byte, error), error) {
	proto := q.Get("proto")
	switch proto {
	case "arq", "counter", "delayed":
	case "":
		return "", nil, fmt.Errorf("parameter proto is required (arq, counter or delayed)")
	default:
		return "", nil, fmt.Errorf("parameter proto=%q unknown (want arq, counter or delayed)", proto)
	}
	n, err := q.intParam("n", 4, 1, 16)
	if err != nil {
		return "", nil, err
	}
	pd, err := q.floatParam("pd", 0)
	if err != nil {
		return "", nil, err
	}
	pi, err := q.floatParam("pi", 0)
	if err != nil {
		return "", nil, err
	}
	delay, err := q.intParam("delay", 1, 0, 64)
	if err != nil {
		return "", nil, err
	}
	params := channel.Params{N: n, Pd: pd, Pi: pi}
	if err := params.Validate(); err != nil {
		return "", nil, err
	}
	if (proto == "arq" || proto == "delayed") && pi != 0 {
		return "", nil, fmt.Errorf("proto %s analyzes a deletion-only channel; pi must be 0, got %v", proto, pi)
	}
	if proto != "delayed" {
		delay = 1 // only the delayed ARQ's body reads (and echoes) delay
	}

	key := fmt.Sprintf("proto=%s&n=%d&pd=%v&pi=%v&delay=%d", proto, n, pd, pi, delay)
	compute := func() ([]byte, error) {
		b, err := core.ComputeBounds(params)
		if err != nil {
			return nil, err
		}
		resp := PredictResponse{Proto: proto, N: n, Pd: pd, Pi: pi, Bounds: FromBounds(b)}
		switch proto {
		case "arq", "delayed":
			rate, err := core.FeedbackDeletionCapacity(params)
			if err != nil {
				return nil, err
			}
			if proto == "delayed" {
				resp.Delay = delay
				rate /= float64(1 + delay)
			}
			resp.PredictedRatePerUse = rate
		case "counter":
			resp.PredictedRatePerUse = b.LowerPerUse
			resp.PaperNormRate = b.LowerT5
		}
		return marshalBody(resp)
	}
	return key, compute, nil
}

// simRun is one seeded supervised protocol run over a fault-injected
// channel: the parameters /v1/simulate and /v1/trace share.
type simRun struct {
	proto          string
	params         channel.Params // Ps is set by /v1/trace only
	delay, symbols int
	seed           uint64
	spec           faultinject.Spec
}

// parseSimRun validates the shared run parameters in one order, so both
// endpoints report the same error for the same bad request. withPs
// reads /v1/trace's substitution probability; /v1/simulate ignores ps,
// since reading it would change its canonical key.
func (s *Server) parseSimRun(q queryValues, withPs bool) (simRun, error) {
	r := simRun{proto: q.Get("proto")}
	switch r.proto {
	case "arq", "counter", "naive", "delayed":
	case "":
		return r, fmt.Errorf("parameter proto is required (arq, counter, naive or delayed)")
	default:
		return r, fmt.Errorf("parameter proto=%q unknown (want arq, counter, naive or delayed)", r.proto)
	}
	var err error
	if r.params.N, err = q.intParam("n", 4, 1, 16); err != nil {
		return r, err
	}
	if r.params.Pd, err = q.floatParam("pd", 0.2); err != nil {
		return r, err
	}
	if r.params.Pi, err = q.floatParam("pi", 0); err != nil {
		return r, err
	}
	if withPs {
		if r.params.Ps, err = q.floatParam("ps", 0); err != nil {
			return r, err
		}
	}
	if r.delay, err = q.intParam("delay", 1, 0, 64); err != nil {
		return r, err
	}
	if r.symbols, err = q.intParam("symbols", 20000, 1, s.cfg.MaxSymbols); err != nil {
		return r, err
	}
	if r.seed, err = q.uint64Param("seed", 1); err != nil {
		return r, err
	}
	if err := r.params.Validate(); err != nil {
		return r, err
	}
	if (r.proto == "arq" || r.proto == "delayed") && r.params.Pi != 0 {
		return r, fmt.Errorf("proto %s analyzes a deletion-only channel; pi must be 0, got %v", r.proto, r.params.Pi)
	}
	r.spec, err = faultinject.ParseSpec(q.Get("inject"))
	return r, err
}

// run executes the run with the seed derivation of `chansim -inject`:
// the message from seed+1, the channel from seed and the fault stack
// from Stream(seed, 2). It returns /v1/simulate's body for the run and,
// when counted, the tallies of a count-only recorder between the stack
// and the supervisor. /v1/simulate skips the recorder, whose per-use
// call no field of its body needs.
func (r simRun) run(counted bool) (SimulateResponse, obs.UseCounts, error) {
	p := r.params
	msg := make([]uint32, r.symbols)
	msgSrc := rng.New(r.seed + 1)
	for i := range msg {
		msg[i] = msgSrc.Symbol(p.N)
	}
	base, err := channel.NewDeletionInsertion(p, rng.New(r.seed))
	if err != nil {
		return SimulateResponse{}, obs.UseCounts{}, err
	}
	stack, err := r.spec.Build(base, p.N, rng.NewStream(r.seed, 2))
	if err != nil {
		return SimulateResponse{}, obs.UseCounts{}, err
	}
	var (
		ch  channel.UseChannel = stack
		rec *obs.ChannelRecorder
	)
	if counted {
		if rec, err = obs.NewChannelRecorder(stack, nil, stack.Injected); err != nil {
			return SimulateResponse{}, obs.UseCounts{}, err
		}
		ch = rec
	}
	res, err := syncproto.RunSupervised(r.proto, ch, p.N, r.delay, syncproto.SupervisorConfig{}, msg)
	if err != nil {
		return SimulateResponse{}, obs.UseCounts{}, err
	}
	var counts obs.UseCounts
	if rec != nil {
		counts = rec.Counts()
	}
	return SimulateResponse{
		Proto: r.proto, N: p.N, Pd: p.Pd, Pi: p.Pi, Delay: r.delay,
		Symbols: r.symbols, Seed: r.seed, Inject: r.spec.String(),
		Status:            res.Status.String(),
		Uses:              res.Uses,
		InjectedFaults:    stack.Injected(),
		SenderOps:         res.SenderOps,
		Delivered:         res.Delivered,
		SymbolErrors:      res.SymbolErrors,
		SkippedSymbols:    res.SkippedSymbols,
		ErrorRate:         res.ErrorRate(),
		MutualInfoPerSlot: res.MutualInfoPerSlot,
		InfoRatePerUse:    res.InfoRatePerUse(),
		Chunks:            res.Chunks,
		FailedChunks:      res.FailedChunks,
		Attempts:          res.Attempts,
		Retries:           res.Retries,
		Resyncs:           res.Resyncs,
		BackoffUses:       res.BackoffUses,
	}, counts, nil
}

// buildSimulate serves /v1/simulate: the accounting of one seeded
// supervised run, reproducible offline as `chansim -inject` on the
// echoed parameters.
func (s *Server) buildSimulate(q queryValues) (string, func() ([]byte, error), error) {
	r, err := s.parseSimRun(q, false)
	if err != nil {
		return "", nil, err
	}
	p, inject := r.params, r.spec.String()
	key := fmt.Sprintf("proto=%s&n=%d&pd=%v&pi=%v&delay=%d&symbols=%d&seed=%d&inject=%s",
		r.proto, p.N, p.Pd, p.Pi, r.delay, r.symbols, r.seed, inject)
	compute := func() ([]byte, error) {
		body, _, err := r.run(false)
		if err != nil {
			return nil, err
		}
		return marshalBody(body)
	}
	return key, compute, nil
}

// allExperiments returns the combined primary + ablation registry.
func allExperiments() []experiments.Experiment {
	return append(experiments.Registry(), experiments.AblationRegistry()...)
}

// handleExperiments serves /v1/experiments: without an id parameter it
// returns the registry catalog directly (no computation to cache);
// with one it runs the selected experiments through the serving core.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("id") == "" {
		start := time.Now()
		cat := CatalogResponse{}
		for _, e := range allExperiments() {
			cat.Experiments = append(cat.Experiments, ExperimentInfo{ID: e.ID, Index: e.Index, Title: e.Title})
		}
		body, err := marshalBody(cat)
		if err != nil {
			s.finish(w, "experiments", start, http.StatusInternalServerError, errorBody(err), "")
			return
		}
		s.finish(w, "experiments", start, http.StatusOK, body, "")
		return
	}
	s.handleCompute("experiments", s.buildExperimentsRun)(w, r)
}

// defaultExperimentSymbols is the /v1/experiments message length by
// default and also its cap, as with ba_iters: one request runs every
// selected table at this length, many protocol runs each, and a
// request's deadline bounds only its wait, not the worker it holds.
// (/v1/simulate and /v1/trace run one protocol, so they keep
// Config.MaxSymbols.)
const defaultExperimentSymbols = 20000

// buildExperimentsRun validates and defers a seeded run of the named
// experiments. Jobs is pinned to 1 inside the worker-pool job: batch
// parallelism is the serving layer's concern here, and the emitted
// tables are byte-identical at any worker count anyway (PR-1
// determinism contract).
func (s *Server) buildExperimentsRun(q queryValues) (string, func() ([]byte, error), error) {
	known := allExperiments()
	want := make(map[string]bool, len(known))
	for _, e := range known {
		want[e.ID] = false
	}
	for _, part := range strings.Split(q.Get("id"), ",") {
		id := strings.TrimSpace(part)
		if id == "" {
			continue
		}
		if _, ok := want[id]; !ok {
			return "", nil, fmt.Errorf("unknown experiment id %q (see the catalog at /v1/experiments)", id)
		}
		want[id] = true
	}
	// The run emits each selected table once, in registry order, so the
	// key lists the ids that way too.
	var ids []string
	for _, e := range known {
		if want[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		return "", nil, fmt.Errorf("parameter id lists no experiments")
	}
	seed, err := q.uint64Param("seed", 1)
	if err != nil {
		return "", nil, err
	}
	if seed == 0 {
		// Config.withDefaults treats 0 as "default seed 1"; normalize
		// before keying so both spellings share a cache line.
		seed = 1
	}
	symbols, err := q.intParam("symbols", defaultExperimentSymbols, 1, defaultExperimentSymbols)
	if err != nil {
		return "", nil, err
	}
	coded, err := q.intParam("coded_symbols", 200, 1, 5000)
	if err != nil {
		return "", nil, err
	}
	quanta, err := q.intParam("quanta", 200000, 1, 2_000_000)
	if err != nil {
		return "", nil, err
	}
	cfg := experiments.Config{Symbols: symbols, CodedSymbols: coded, Quanta: quanta, Seed: seed}

	key := fmt.Sprintf("id=%s&seed=%d&symbols=%d&coded=%d&quanta=%d",
		strings.Join(ids, ","), seed, symbols, coded, quanta)
	compute := func() ([]byte, error) {
		results, err := experiments.Run(context.Background(), cfg, allExperiments(),
			experiments.RunOptions{Jobs: 1, Only: ids})
		if err != nil {
			return nil, err
		}
		tables, err := experiments.Tables(results)
		if err != nil {
			return nil, err
		}
		resp := ExperimentsResponse{Seed: seed, Symbols: symbols, CodedSymbols: coded, Quanta: quanta}
		for _, t := range tables {
			resp.Tables = append(resp.Tables, FromTable(t))
		}
		return marshalBody(resp)
	}
	return key, compute, nil
}
