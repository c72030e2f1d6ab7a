package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/delcap"
	"repro/internal/rng"
	"repro/internal/session"
)

// layerInput is what a traced run hands the per-layer analysis.
type layerInput struct {
	r        *runner
	wl       workload
	gens     []generator
	cs       []*client
	untraced phase // closed-loop slices with tracing off
	traced   phase // closed-loop slices with tracing on
	open     phase
	mem      memDelta
	cap      capCounters
	cluster  clusterCounters
	tickUS   float64

	attempted, failed int64
}

// durUS is a span's duration in microseconds.
func durUS(s *span) float64 { return float64(s.End-s.Start) / 1e3 }

// metrics fills m with every per-layer metric. A layer the workload
// does not exercise reports 0.
func (l *layerInput) metrics(m map[string]float64) error {
	spans := l.r.tr.recorded()
	children := make(map[int64][]*span, len(spans))
	var roots []*span
	var gets, puts []*span
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanClient:
			roots = append(roots, s)
		case spanStoreGet:
			gets = append(gets, s)
		case spanStorePut:
			puts = append(puts, s)
		default:
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// entry is the serving stack's outermost handler span for a client
	// request: the router in a ring, the capserver standalone.
	entry := func(c *span) *span {
		for _, s := range children[c.ID] {
			if s.Name == spanNode || s.Name == spanCapserver {
				return s
			}
		}
		return nil
	}

	// HTTP transport floor from the healthz probes, then the share of
	// each workload request's round trip spent outside the handler.
	// Medians, not means: a few probes or requests caught by a GC pause
	// or a descheduled thread would otherwise swing both by several
	// percent from run to run.
	var floors, handler, hops, routes, owned, forwarded, ingest, sessGet []float64
	for _, c := range roots {
		if reqKind(c.Arg&0xff) == kindProbe {
			if e := entry(c); e != nil {
				floors = append(floors, durUS(c)-durUS(e))
			}
		}
	}
	floor := quantile(floors, 0.5)
	var transport, unattributed []float64
	var local func(s *span)
	local = func(s *span) {
		for _, ch := range children[s.ID] {
			switch ch.Name {
			case spanCapserver:
				handler = append(handler, durUS(ch))
			case spanHop:
				hops = append(hops, durUS(ch))
			}
			local(ch)
		}
	}
	for _, c := range roots {
		kind := reqKind(c.Arg & 0xff)
		if kind == kindProbe {
			continue
		}
		switch kind {
		case kindPoint:
			if c.Arg&(1<<8) != 0 {
				forwarded = append(forwarded, durUS(c))
			} else {
				owned = append(owned, durUS(c))
			}
		case kindIngest:
			ingest = append(ingest, durUS(c))
		case kindSessionGet:
			sessGet = append(sessGet, durUS(c))
		}
		e := entry(c)
		if e == nil {
			continue
		}
		rtt, outside := durUS(c), durUS(c)-durUS(e)
		transport = append(transport, outside/rtt)
		unattributed = append(unattributed, (outside-floor)/rtt)
		if e.Name == spanCapserver {
			handler = append(handler, durUS(e))
		}
		local(e)
		if e.Name == spanNode {
			route := durUS(e)
			for _, ch := range children[e.ID] {
				route -= durUS(ch)
			}
			routes = append(routes, route)
		}
	}
	m["http.floor_us"] = floor
	m["http.transport_share"] = quantile(transport, 0.5)
	m["trace.unattributed_share"] = quantile(unattributed, 0.5)
	m["capserver.handler_us_p50"] = quantile(handler, 0.5)
	m["capserver.handler_us_p99"] = quantile(handler, 0.99)
	m["cluster.hop_us_p50"] = quantile(hops, 0.5)
	m["cluster.hop_us_p99"] = quantile(hops, 0.99)
	m["cluster.route_us_p50"] = quantile(routes, 0.5)
	if l.r.st.members[0].node != nil {
		m["cluster.owned_rtt_us_p50"] = quantile(owned, 0.5)
		m["cluster.forwarded_rtt_us_p50"] = quantile(forwarded, 0.5)
	} else {
		m["cluster.owned_rtt_us_p50"], m["cluster.forwarded_rtt_us_p50"] = 0, 0
	}

	// Store calls.
	var getUS, putUS []float64
	for _, s := range gets {
		getUS = append(getUS, durUS(s))
	}
	for _, s := range puts {
		putUS = append(putUS, durUS(s))
	}
	m["casstore.get_us_p50"] = quantile(getUS, 0.5)
	m["casstore.get_us_p99"] = quantile(getUS, 0.99)
	m["casstore.put_us_p50"] = quantile(putUS, 0.5)
	m["casstore.put_us_p99"] = quantile(putUS, 0.99)
	ss := l.r.st.storeStats()
	m["casstore.corrupt_total"] = float64(ss.Corrupt)
	m["casstore.put_errors_total"] = float64(ss.PutErrors)

	// Kernels, timed directly on cold-grid points.
	k := timeKernels(l.r.opt.seed, l.r.opt.scale.kernelPoints)
	m["core.bounds_us"] = k.boundsUS
	m["infotheory.ba_us"] = k.baUS
	m["infotheory.ba_iters"] = k.baIters
	m["delcap.mc_us"] = k.mcUS
	m["delcap.mc_floor_ratio"] = k.mcFloorRatio

	// Queue wait and compute. Standalone GETs carry capserver's
	// trace-gated timing headers; batch points do not, so there the
	// wait is the store's miss-Get to Put interval minus the point's
	// kernel time.
	var queue, compute []float64
	for _, c := range l.cs {
		queue = append(queue, c.queueUS...)
		compute = append(compute, c.computeUS...)
	}
	missAt := map[int64]int64{}
	for _, s := range gets {
		if s.Aux == 0 {
			missAt[s.Arg] = s.End
		}
	}
	for _, p := range puts {
		if at, ok := missAt[p.Arg]; ok {
			kt := k.classUS(p.Aux)
			compute = append(compute, kt)
			queue = append(queue, float64(p.Start-at)/1e3-kt)
		}
	}
	busy := sum(compute)
	m["capserver.queue_us_p50"] = quantile(queue, 0.5)
	m["capserver.queue_us_p99"] = quantile(queue, 0.99)
	m["capserver.compute_us_p50"] = quantile(compute, 0.5)
	m["capserver.pool_busy_ratio"] = finite(busy / (float64(runtime.GOMAXPROCS(0)) * l.traced.wall.Seconds() * 1e6))
	m["capserver.kernel_share"] = finite(busy / (busy + sum(queue)))

	// Serving classes over the closed loop.
	c := l.cap
	total := float64(c.hits + c.shared + c.storeHits + c.computes + c.rejected + c.abandoned)
	m["capserver.lru_hit_ratio"] = finite(float64(c.hits) / total)
	m["capserver.store_hit_ratio"] = finite(float64(c.storeHits) / total)
	m["capserver.shared_ratio"] = finite(float64(c.shared) / total)
	m["capserver.miss_ratio"] = finite(float64(c.computes+c.rejected+c.abandoned) / total)
	all := l.r.st.capCounters()
	m["capserver.rejected_total"] = float64(all.rejected)
	m["capserver.abandoned_total"] = float64(all.abandoned)
	sample, err := l.canonicalizeSample()
	if err != nil {
		return err
	}
	m["capserver.canonicalize_us"] = timeCanonicalize(l.r.st.members[0], sample)

	// Cluster routing.
	cl := l.cluster
	m["cluster.forward_ratio"] = ratio(cl.forwards, cl.owned+cl.forwards)
	m["cluster.hedge_ratio"] = ratio(cl.hedges, cl.forwards)
	allCl := l.r.st.clusterCounters()
	m["cluster.retry_total"] = float64(allCl.retries)
	m["cluster.degraded_total"] = float64(allCl.degraded)

	// Sessions: decode and apply timed directly on the workload's batch
	// shape, next to the client round trips over HTTP.
	dec, app, err := timeSessionLayer(l.r.opt.seed, l.r.opt.scale)
	if err != nil {
		return err
	}
	m["session.decode_us_per_batch"] = dec
	m["session.apply_us_per_batch"] = app
	m["session.ingest_rtt_us_p50"] = quantile(ingest, 0.5)
	m["session.get_rtt_us_p50"] = quantile(sessGet, 0.5)
	m["session.http_share"] = 0
	m["session.bounds_hit_ratio"] = 0
	if ss, ok := l.wl.(*sessionStream); ok {
		m["session.http_share"] = finite(1 - (dec+app)/mean(ingest))
		m["session.bounds_hit_ratio"] = ss.boundsHitRatio(l.gens)
	}

	m["health.tick_us"] = l.tickUS
	md := l.mem
	m["runtime.alloc_bytes_per_req"] = ratio(float64(md.allocBytes), float64(md.ops))
	m["runtime.gc_per_kreq"] = ratio(float64(md.gcs)*1000, float64(md.ops))
	m["runtime.gc_pause_us_total"] = float64(md.pause) / 1e3
	m["trace.overhead_ratio"] = finite(1 - l.traced.rate()/l.untraced.rate())
	m["bench.open_p50_us"] = quantile(l.open.lat, 0.5) / 1e3
	m["bench.open_p99_us"] = quantile(l.open.lat, 0.99) / 1e3
	m["bench.open_late_ratio"] = ratio(l.open.late, l.open.ok+l.open.failed)
	m["bench.error_ratio"] = ratio(l.failed, l.attempted)
	return nil
}

// canonicalizeSample returns GET request paths of the workload's shape
// for timing Server.Canonicalize.
func (l *layerInput) canonicalizeSample() ([]string, error) {
	switch w := l.wl.(type) {
	case *hotPoint:
		return w.paths, nil
	case *ringSpill:
		return w.paths, nil
	case *sessionStream:
		out := make([]string, len(w.ids))
		for i, id := range w.ids {
			out[i] = "/v1/sessions/" + id
		}
		return out, nil
	case *coldGrid:
		var out []string
		for _, p := range kernelPoints(l.r.opt.seed, l.r.opt.scale.kernelPoints) {
			out = append(out, p.query())
		}
		return out, nil
	}
	return nil, fmt.Errorf("no canonicalize sample for %T", l.wl)
}

// timeCanonicalize returns the mean µs per Canonicalize call over the
// sample, best of three rounds.
func timeCanonicalize(m *member, paths []string) float64 {
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
	}
	best := 0.0
	for round := 0; round < 3; round++ {
		start := time.Now()
		for _, r := range reqs {
			m.srv.Canonicalize(r)
		}
		us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(reqs))
		if round == 0 || us < best {
			best = us
		}
	}
	return best
}

// kernelPoints draws count points of the cold-grid shape, batch by
// batch, for direct timings.
func kernelPoints(seed uint64, count int) []gridPt {
	src := rng.NewStream(seed, 4)
	return gridBatch(nil, count, func(i int) gridPt { return gridPoint(src, seed, i, sweepBase) })
}

// query renders the point as a GET /v1/bounds path.
func (p gridPt) query() string {
	q := fmt.Sprintf("/v1/bounds?n=%d&pd=%s&pi=%s&ps=%s&ba=true", p.n, p.pd, f(p.pi, 3), f(p.ps, 3))
	if p.mc {
		q += "&mc_n=12&mc_samples=2000"
	}
	return q
}

// drawSink keeps the floor loop's draws observable.
var drawSink uint64

// kernelTimes are the kernels' direct costs on cold-grid points.
type kernelTimes struct {
	boundsUS, baUS, baIters, mcUS, mcFloorRatio float64
	baByN                                       map[int]float64
}

// classUS estimates the kernel time of a bounds point of the given
// pointClass.
func (k kernelTimes) classUS(class int32) float64 {
	t := k.boundsUS + k.baByN[int(class/2)]
	if class%2 == 1 {
		t += k.mcUS
	}
	return t
}

// timeKernels calls the bounds kernels directly on count cold-grid
// points, as the server computes them, and reports mean µs per call.
// The Monte-Carlo floor replays the estimator's random draws (one
// uniform input word and one deletion coin per bit, per sample) without
// the estimator's work.
func timeKernels(seed uint64, count int) kernelTimes {
	k := kernelTimes{baByN: map[int]float64{}}
	var boundsNS, baNS, mcNS, floorNS, iters float64
	nByN := map[int]float64{}
	var mcs float64
	for _, p := range kernelPoints(seed, count) {
		pd, _ := strconv.ParseFloat(p.pd, 64)
		params := channel.Params{N: p.n, Pd: pd, Pi: p.pi, Ps: p.ps}
		start := time.Now()
		core.ComputeBounds(params)
		boundsNS += float64(time.Since(start))
		start = time.Now()
		if dmc, err := core.ConvertedChannelDMC(p.n, p.pi); err == nil {
			if cr, err := dmc.Capacity(1e-9, 2000); err == nil {
				iters += float64(cr.Iterations)
			}
		}
		d := float64(time.Since(start))
		baNS += d
		k.baByN[p.n] += d
		nByN[p.n]++
		if p.mc {
			mcs++
			start = time.Now()
			delcap.MonteCarloUniformRate(12, pd, 2000, rng.New(1))
			mcNS += float64(time.Since(start))
			start = time.Now()
			draws := rng.New(1)
			var sink uint64
			for s := 0; s < 2000; s++ {
				sink += draws.Uint64n(1 << 12)
				for b := 0; b < 12; b++ {
					if draws.Bool(pd) {
						sink++
					}
				}
			}
			floorNS += float64(time.Since(start))
			drawSink = sink
		}
	}
	n := float64(count)
	k.boundsUS, k.baUS, k.baIters = boundsNS/n/1e3, baNS/n/1e3, iters/n
	for w, c := range nByN {
		k.baByN[w] = k.baByN[w] / c / 1e3
	}
	if mcs > 0 {
		k.mcUS = mcNS / mcs / 1e3
		k.mcFloorRatio = mcNS / floorNS
	}
	return k
}

// timeSessionLayer decodes and applies the session-stream batch shape
// directly, without HTTP, and reports mean µs per batch of each.
func timeSessionLayer(seed uint64, sc scale) (decodeUS, applyUS float64, err error) {
	tpls, err := makeTemplates(seed, 16, sc.events)
	if err != nil {
		return 0, 0, err
	}
	store, err := session.NewStore(session.StoreConfig{})
	if err != nil {
		return 0, 0, err
	}
	var body []byte
	var decNS, appNS float64
	var cursor int64
	for b := 0; b < sc.sessionBatches; b++ {
		t := &tpls[b%len(tpls)]
		body = t.render(body[:0], cursor)
		cursor += int64(len(t.events))
		start := time.Now()
		events, err := session.DecodeBatch(bytes.NewReader(body), 0, 0)
		decNS += float64(time.Since(start))
		if err != nil {
			return 0, 0, err
		}
		start = time.Now()
		if _, _, err := store.IngestEvents("layer-probe", events); err != nil {
			return 0, 0, err
		}
		appNS += float64(time.Since(start))
	}
	n := float64(sc.sessionBatches)
	return decNS / n / 1e3, appNS / n / 1e3, nil
}
