package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"

	"repro/internal/capserver"
	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/session"
)

// workload is one traffic mix. prepare makes its inputs and any state
// it starts from, such as a store that already holds results, once per
// run. setup boots the stack into r.st and prefills it; the runner
// repeats and times it as setup_s. client returns client c's request
// generator; check verifies the run's outputs once the measured phases
// are over.
type workload interface {
	prepare(r *runner) error
	setup(r *runner) error
	client(c int) generator
	check(r *runner) error
}

// spec holds a workload's fixed constants.
type spec struct {
	name string
	// openRate is the fixed open-loop rate, operations per second across
	// all clients: about a quarter of the closed-loop throughput this
	// workload reached on the machine the speed reference was calibrated
	// on, so the schedule never builds a standing backlog there.
	openRate float64
	// maxRate sizes the preallocated latency buffers (operations per
	// second, well above any closed-loop rate seen).
	maxRate float64
	// traceEvery is the traced run's sampling period in requests, sized
	// so the span buffer holds a whole run.
	traceEvery int64
	make       func() workload
}

var specs = []spec{
	{
		name:       "hot-point",
		openRate:   12000,
		maxRate:    60000,
		traceEvery: 8,
		make:       func() workload { return &hotPoint{} },
	},
	{
		name:       "cold-grid",
		openRate:   40,
		maxRate:    2000,
		traceEvery: 1,
		make:       func() workload { return &coldGrid{} },
	},
	{
		name:       "ring-spill",
		openRate:   5000,
		maxRate:    30000,
		traceEvery: 8,
		make:       func() workload { return &ringSpill{} },
	},
	{
		name:       "session-stream",
		openRate:   1000,
		maxRate:    20000,
		traceEvery: 1,
		make:       func() workload { return &sessionStream{} },
	},
}

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// f formats a parameter value with a fixed number of decimals, so two
// textually distinct values are numerically distinct.
func f(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// boundsQuery draws one /v1/bounds parameter point of width n.
func boundsQuery(src *rng.Source, n int) string {
	return fmt.Sprintf("n=%d&pd=%s&pi=%s&ps=%s", n,
		f(0.01+0.29*src.Float64(), 4), f(0.2*src.Float64(), 4), f(0.2*src.Float64(), 4))
}

// distinct draws count distinct paths from draw.
func distinct(count int, draw func() string) []string {
	seen := make(map[string]bool, count)
	out := make([]string, 0, count)
	for len(out) < count {
		if p := draw(); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// get issues one setup or check GET and requires a 200.
func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	return readOK(resp, "GET "+url)
}

// post issues one setup POST and requires a 200.
func post(hc *http.Client, url, contentType string, body []byte) ([]byte, error) {
	resp, err := hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readOK(resp, "POST "+url)
}

// readOK reads a response body and requires a 200.
func readOK(resp *http.Response, what string) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// parallel runs fn(i) for i in [0, n) on the given number of goroutines
// and returns the first error.
func parallel(workers, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// oracle is a fresh single-node capserver with library defaults, called
// in process; its bodies are the reference every served body must equal
// byte for byte.
type oracle struct {
	srv    *capserver.Server
	mutate func([]byte) []byte
}

func newOracle(mutate func([]byte) []byte) *oracle {
	return &oracle{srv: capserver.New(capserver.Config{SessionSweep: -1}), mutate: mutate}
}

func (o *oracle) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	o.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("oracle %s %s: status %d", method, path, rec.Code)
	}
	out := rec.Body.Bytes()
	if o.mutate != nil {
		out = o.mutate(out)
	}
	return out, nil
}

// close stops the oracle's worker pool; it never served a connection,
// so there is nothing to drain and no error to report.
func (o *oracle) close() { _ = o.srv.Shutdown(context.Background()) }

// compare reports the first byte at which got and want differ.
func compare(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: body differs from the single-node oracle at byte %d (got %d bytes, want %d)", what, i, len(got), len(want))
}

// pointGen picks a member and a point uniformly from the seed.
type pointGen struct {
	src   *rng.Source
	urls  [][]string // [member][point]
	owned [][]bool   // nil for a standalone server
}

func (g *pointGen) next(r *request) {
	m := g.src.Intn(len(g.urls))
	p := g.src.Intn(len(g.urls[m]))
	*r = request{method: http.MethodGet, url: g.urls[m][p], kind: kindPoint}
	if g.owned != nil {
		r.forwarded = !g.owned[m][p]
	}
}

func (g *pointGen) reply(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", r.url, status)
	}
	return nil
}

// ---- hot-point -------------------------------------------------------

// hotPoint serves 192 bounds and 64 predict points from a standalone
// server with daemon defaults. Setup touches every point, so every
// measured request is an LRU hit.
type hotPoint struct {
	r     *runner
	paths []string
	first [][]byte
}

func (w *hotPoint) prepare(r *runner) error {
	w.r = r
	src := rng.NewStream(r.opt.seed, 1)
	sc := r.opt.scale
	w.paths = distinct(sc.hotBounds, func() string {
		return "/v1/bounds?" + boundsQuery(src, 4+2*src.Intn(3))
	})
	w.paths = append(w.paths, distinct(sc.hotPredict, func() string {
		n, pd := 4+2*src.Intn(3), f(0.01+0.29*src.Float64(), 4)
		switch src.Intn(3) {
		case 0:
			return fmt.Sprintf("/v1/predict?proto=arq&n=%d&pd=%s", n, pd)
		case 1:
			return fmt.Sprintf("/v1/predict?proto=counter&n=%d&pd=%s&pi=%s", n, pd, f(0.2*src.Float64(), 4))
		default:
			return fmt.Sprintf("/v1/predict?proto=delayed&n=%d&pd=%s&delay=%d", n, pd, 1+src.Intn(8))
		}
	})...)
	return nil
}

func (w *hotPoint) setup(r *runner) error {
	if err := r.boot(stackConfig{members: 1}); err != nil {
		return err
	}
	w.first = make([][]byte, len(w.paths))
	for i, p := range w.paths {
		var err error
		if w.first[i], err = get(r.hc, r.st.url(0)+p); err != nil {
			return err
		}
	}
	return nil
}

func (w *hotPoint) client(c int) generator {
	urls := make([]string, len(w.paths))
	for i, p := range w.paths {
		urls[i] = w.r.st.url(0) + p
	}
	return &pointGen{src: w.r.clientRNG(c), urls: [][]string{urls}}
}

func (w *hotPoint) check(r *runner) error {
	o := newOracle(r.opt.hooks.mutateOracle)
	defer o.close()
	for i, p := range w.paths {
		want, err := o.do(http.MethodGet, p, nil)
		if err != nil {
			return err
		}
		if err := compare("hot-point first response for "+p, w.first[i], want); err != nil {
			return err
		}
	}
	return nil
}

// ---- ring-spill ------------------------------------------------------

// ringSpill runs a fault-free 3-node ring over one shared store, each
// member with a small LRU. The working set is about 5x the combined
// LRU, so most requests are store reads, and about 2/3 take a forwarded
// hop.
type ringSpill struct {
	r     *runner
	dir   string
	paths []string
	via   []int // the member each point is read through in set-up
	owned [][]bool
	urls  [][]string
	first [][]byte
}

// prepare computes every point once through a throwaway ring over the
// run's store, as an earlier incarnation of the ring would have, and
// records each point's first response and owner. Set-up then times a
// restart over that store.
func (w *ringSpill) prepare(r *runner) error {
	w.r = r
	sc := r.opt.scale
	src := rng.NewStream(r.opt.seed, 2)
	// Widths 4-6 keep the BA solves cheap; the workload is about routing
	// and the store, not the kernel.
	w.paths = distinct(sc.ringPoints, func() string {
		return "/v1/bounds?" + boundsQuery(src, 4+src.Intn(3)) + "&ba=1"
	})
	var err error
	if w.dir, err = r.storeDir(); err != nil {
		return err
	}
	if err := r.boot(stackConfig{members: 3, cache: sc.ringCache, storeDir: w.dir}); err != nil {
		return err
	}
	// Placement is a function of the member names alone, so it holds for
	// every later boot of the ring.
	w.owned = make([][]bool, len(r.st.members))
	for m, mem := range r.st.members {
		w.owned[m] = make([]bool, len(w.paths))
		for i, p := range w.paths {
			key, ok := mem.srv.Canonicalize(httptest.NewRequest(http.MethodGet, p, nil))
			if !ok {
				return fmt.Errorf("ring-spill: %s is not shardable", p)
			}
			w.owned[m][i] = mem.node.Ring().Owner(key) == mem.name
		}
	}
	w.via = make([]int, len(w.paths))
	for i := range w.via {
		w.via[i] = src.Intn(len(r.st.members))
	}
	w.first = make([][]byte, len(w.paths))
	err = parallel(r.clients, len(w.paths), func(i int) (err error) {
		w.first[i], err = get(r.hc, r.st.url(w.via[i])+w.paths[i])
		return err
	})
	return errors.Join(err, r.stop())
}

// setup boots the ring over the populated store and reads every point
// through it, which leaves each member's LRU holding the last of its
// keys read.
func (w *ringSpill) setup(r *runner) error {
	if err := r.boot(stackConfig{members: 3, cache: r.opt.scale.ringCache, storeDir: w.dir}); err != nil {
		return err
	}
	w.urls = make([][]string, len(r.st.members))
	for m := range w.urls {
		w.urls[m] = make([]string, len(w.paths))
		for i, p := range w.paths {
			w.urls[m][i] = r.st.url(m) + p
		}
	}
	return parallel(r.clients, len(w.paths), func(i int) error {
		_, err := get(r.hc, w.urls[w.via[i]][i])
		return err
	})
}

func (w *ringSpill) client(c int) generator {
	return &pointGen{src: w.r.clientRNG(c), urls: w.urls, owned: w.owned}
}

func (w *ringSpill) check(r *runner) error {
	if d := r.st.clusterCounters().degraded; d != 0 {
		return fmt.Errorf("ring-spill: cluster.degraded_total = %d, want 0 on a fault-free ring", d)
	}
	if err := checkStore(r); err != nil {
		return err
	}
	o := newOracle(r.opt.hooks.mutateOracle)
	defer o.close()
	want := make([][]byte, len(w.paths))
	for i, p := range w.paths {
		var err error
		if want[i], err = o.do(http.MethodGet, p, nil); err != nil {
			return err
		}
		if err := compare("ring-spill first response for "+p, w.first[i], want[i]); err != nil {
			return err
		}
	}
	// A seeded sample read back after the run: by now most of these come
	// from the store, through a forwarded hop.
	src := rng.NewStream(r.opt.seed, 3)
	for k := 0; k < r.opt.scale.sample; k++ {
		i, m := src.Intn(len(w.paths)), src.Intn(len(w.urls))
		got, err := get(r.hc, w.urls[m][i])
		if err != nil {
			return err
		}
		if err := compare("ring-spill re-read of "+w.paths[i], got, want[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkStore requires a clean store: nothing read back corrupt, no
// write lost.
func checkStore(r *runner) error {
	s := r.st.storeStats()
	if s.Corrupt != 0 || s.PutErrors != 0 {
		return fmt.Errorf("casstore: corrupt_total = %d, put_errors_total = %d, want 0", s.Corrupt, s.PutErrors)
	}
	return nil
}

// ---- cold-grid -------------------------------------------------------

// coldGrid sends POST /v1/bounds:batch sweeps of points never seen
// before in the run to a standalone server writing through to a store.
// The store already holds an earlier sweep, as an analyst's does.
type coldGrid struct {
	r       *runner
	dir     string
	earlier []string // GET paths of the earlier sweep's points
	mu      sync.Mutex
	kept    []keptBatch
}

// keptBatch is a sampled batch request and its first response.
type keptBatch struct{ body, resp []byte }

// prepare runs the earlier sweep into the run's store through a
// throwaway server.
func (w *coldGrid) prepare(r *runner) error {
	w.r = r
	var err error
	if w.dir, err = r.storeDir(); err != nil {
		return err
	}
	if err := r.boot(stackConfig{members: 1, storeDir: w.dir}); err != nil {
		return err
	}
	sc := r.opt.scale
	batches := make([][]byte, sc.earlierBatches)
	for b := range batches {
		src := rng.NewStream(r.opt.seed, uint64(200+b))
		pts := gridBatch(nil, sc.batchPoints, func(i int) gridPt {
			return gridPoint(src, r.opt.seed, b*sc.batchPoints+i, earlierBase)
		})
		for _, p := range pts {
			w.earlier = append(w.earlier, p.query())
		}
		batches[b] = appendBatch(nil, pts)
	}
	err = parallel(r.clients, len(batches), func(b int) error {
		out, err := post(r.hc, r.st.url(0)+"/v1/bounds:batch", "application/json", batches[b])
		if err == nil && !bytes.Contains(out, []byte(`"failed":0,`)) {
			err = fmt.Errorf("cold-grid earlier sweep: batch has failed points: %.200s", out)
		}
		return err
	})
	return errors.Join(err, r.stop())
}

// setup boots the server over the store and reads the earlier sweep
// back, as an analyst resuming work would.
func (w *coldGrid) setup(r *runner) error {
	if err := r.boot(stackConfig{members: 1, storeDir: w.dir}); err != nil {
		return err
	}
	return parallel(r.clients, len(w.earlier), func(i int) error {
		_, err := get(r.hc, r.st.url(0)+w.earlier[i])
		return err
	})
}

// The measured sweep's deletion probabilities lie in [0.02, 0.22); the
// set-up's earlier sweep lies in [0.25, 0.45), so the two never share a
// point.
const (
	sweepBase   = 0.02
	earlierBase = 0.25
)

// gridPrime bounds the unique point sequence: point g of a sweep maps
// to the grid cell (a*g + seed) mod gridPrime, a bijection, so no point
// repeats within a sweep.
const gridPrime = 999983

// gridPt is one cold-grid parameter point.
type gridPt struct {
	n      int
	pd     string
	pi, ps float64
	mc     bool
}

// gridPoint draws point g of a sweep whose deletion probabilities
// start at base.
func gridPoint(src *rng.Source, seed uint64, g int, base float64) gridPt {
	a := 1 + seed%(gridPrime-1)
	cell := (a*uint64(g) + seed) % gridPrime
	return gridPt{
		n:  4 + 2*src.Intn(3),
		pd: f(base+2e-7*float64(cell), 7),
		pi: 0.3 * src.Float64(),
		ps: 0.2 * src.Float64(),
	}
}

// gridBatch appends the count points of one batch to dst, point i drawn
// by draw(i). Every 4th point adds a Monte-Carlo deletion-rate
// estimate.
func gridBatch(dst []gridPt, count int, draw func(i int) gridPt) []gridPt {
	for i := 0; i < count; i++ {
		p := draw(i)
		p.mc = i%4 == 3
		dst = append(dst, p)
	}
	return dst
}

// appendBatch renders a /v1/bounds:batch body.
func appendBatch(dst []byte, pts []gridPt) []byte {
	dst = append(dst, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = p.appendJSON(dst)
	}
	return append(dst, "]}"...)
}

// appendJSON renders the point as a batch entry.
func (p gridPt) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, int64(p.n), 10)
	dst = append(dst, `,"pd":`...)
	dst = append(dst, p.pd...)
	dst = append(dst, `,"pi":`...)
	dst = strconv.AppendFloat(dst, p.pi, 'f', 3, 64)
	dst = append(dst, `,"ps":`...)
	dst = strconv.AppendFloat(dst, p.ps, 'f', 3, 64)
	dst = append(dst, `,"ba":true`...)
	if p.mc {
		dst = append(dst, `,"mc_n":12,"mc_samples":2000`...)
	}
	return append(dst, '}')
}

// pointClass classifies a bounds body for kernel-time attribution: twice
// the symbol width, plus one when the body carries a Monte-Carlo rate.
func pointClass(body []byte) int32 {
	const prefix = `{"bounds":{"n":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0
	}
	n, _ := strconv.Atoi(string(body[len(prefix) : len(prefix)+bytes.IndexByte(body[len(prefix):], ',')]))
	c := int32(2 * n)
	if bytes.Contains(body, []byte(`"mc_n":`)) {
		c++
	}
	return c
}

type gridGen struct {
	w         *coldGrid
	src       *rng.Source
	url       string
	c, stride int
	points    int
	batches   int
	pts       []gridPt
	body      []byte
	keepEvery int
}

func (w *coldGrid) client(c int) generator {
	return &gridGen{w: w, src: w.r.clientRNG(c), url: w.r.st.url(0) + "/v1/bounds:batch",
		c: c, stride: w.r.clients, points: w.r.opt.scale.batchPoints, keepEvery: 5}
}

func (g *gridGen) next(r *request) {
	g.pts = gridBatch(g.pts[:0], g.points, func(i int) gridPt {
		return gridPoint(g.src, g.w.r.opt.seed, g.c+g.stride*(g.batches*g.points+i), sweepBase)
	})
	g.body = appendBatch(g.body[:0], g.pts)
	g.batches++
	*r = request{method: http.MethodPost, url: g.url, body: g.body, kind: kindBatch}
}

func (g *gridGen) reply(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", r.url, status)
	}
	if !bytes.Contains(body, []byte(`"failed":0,`)) {
		return fmt.Errorf("POST %s: batch has failed points: %.200s", r.url, body)
	}
	if (g.batches-1)%g.keepEvery == int(g.w.r.opt.seed)%g.keepEvery {
		g.w.mu.Lock()
		if len(g.w.kept) < g.w.r.opt.scale.sample/g.points {
			g.w.kept = append(g.w.kept, keptBatch{body: bytes.Clone(r.body), resp: bytes.Clone(body)})
		}
		g.w.mu.Unlock()
	}
	return nil
}

func (w *coldGrid) check(r *runner) error {
	if err := checkStore(r); err != nil {
		return err
	}
	if len(w.kept) == 0 {
		return fmt.Errorf("cold-grid: no batch sampled for the oracle check")
	}
	o := newOracle(r.opt.hooks.mutateOracle)
	defer o.close()
	for i, k := range w.kept {
		want, err := o.do(http.MethodPost, "/v1/bounds:batch", k.body)
		if err != nil {
			return err
		}
		if err := compare(fmt.Sprintf("cold-grid sampled batch %d", i), k.resp, want); err != nil {
			return err
		}
	}
	return nil
}

// ---- session-stream --------------------------------------------------

// sessionStream streams NDJSON use events into sessions split evenly
// between the clients; every 8th request reads a session back.
type sessionStream struct {
	r         *runner
	templates []eventTemplate
	ids       []string
	sess      []sessionTally
}

// eventTemplate is one seeded channel-simulator run of E uses; a batch
// renders it with the session's use cursor added.
type eventTemplate struct {
	events []session.Event
	counts [4]int64 // T, S, D, I
}

// sessionTally is what a client has sent to one session.
type sessionTally struct {
	lastUse int64
	counts  [4]int64
}

// makeTemplates simulates count Definition 1 channels of width 4 (the
// session store's default) with seeded parameters, events uses each.
func makeTemplates(seed uint64, count, events int) ([]eventTemplate, error) {
	out := make([]eventTemplate, count)
	for t := range out {
		src := rng.NewStream(seed, uint64(1000+t))
		p := channel.Params{N: 4, Pd: 0.02 + 0.1*src.Float64(), Pi: 0.02 + 0.08*src.Float64(), Ps: 0.01 + 0.07*src.Float64()}
		ch, err := channel.NewDeletionInsertion(p, src.Split())
		if err != nil {
			return nil, err
		}
		sym := src.Split()
		queued, have := uint32(0), false
		tpl := eventTemplate{events: make([]session.Event, events)}
		for i := range tpl.events {
			if !have {
				queued, have = sym.Symbol(p.N), true
			}
			u := ch.Use(queued)
			ev := session.Event{Use: int64(i + 1), Kind: u.Kind}
			switch u.Kind {
			case channel.EventTransmit, channel.EventSubstitute:
				ev.Sent, ev.Received = queued, u.Delivered
			case channel.EventDelete:
				ev.Sent = queued
			case channel.EventInsert:
				ev.Received = u.Delivered
			}
			if u.Consumed {
				have = false
			}
			tpl.events[i] = ev
			tpl.counts[u.Kind-channel.EventTransmit]++
		}
		out[t] = tpl
	}
	return out, nil
}

// render appends the template's NDJSON with use indices after cursor.
func (t *eventTemplate) render(dst []byte, cursor int64) []byte {
	for _, ev := range t.events {
		dst = append(dst, `{"u":`...)
		dst = strconv.AppendInt(dst, cursor+ev.Use, 10)
		dst = append(dst, `,"k":"`...)
		dst = append(dst, "?TSDI"[ev.Kind])
		dst = append(dst, '"')
		if ev.Kind != channel.EventInsert {
			dst = append(dst, `,"s":`...)
			dst = strconv.AppendUint(dst, uint64(ev.Sent), 10)
		}
		if ev.Kind != channel.EventDelete {
			dst = append(dst, `,"r":`...)
			dst = strconv.AppendUint(dst, uint64(ev.Received), 10)
		}
		dst = append(dst, "}\n"...)
	}
	return dst
}

func (w *sessionStream) prepare(r *runner) error {
	w.r = r
	sc := r.opt.scale
	var err error
	if w.templates, err = makeTemplates(r.opt.seed, 64, sc.events); err != nil {
		return err
	}
	w.ids = make([]string, sc.sessions)
	for i := range w.ids {
		w.ids[i] = fmt.Sprintf("bench-%d-%05d", r.opt.seed, i)
	}
	return nil
}

func (w *sessionStream) setup(r *runner) error {
	w.sess = make([]sessionTally, len(w.ids))
	if err := r.boot(stackConfig{members: 1}); err != nil {
		return err
	}
	st := r.st
	// Open every session with one batch, so the measured phases see
	// steady-state sessions and never a first contact.
	return parallel(r.clients, len(w.ids), func(i int) error {
		t := &w.templates[i%len(w.templates)]
		if _, err := post(r.hc, st.url(0)+"/v1/sessions/"+w.ids[i]+"/events", "application/x-ndjson", t.render(nil, 0)); err != nil {
			return fmt.Errorf("session-stream: opening %s: %w", w.ids[i], err)
		}
		w.sess[i].add(t)
		return nil
	})
}

func (s *sessionTally) add(t *eventTemplate) {
	s.lastUse += int64(len(t.events))
	for k := range s.counts {
		s.counts[k] += t.counts[k]
	}
}

// sessionGen drives one client's share of the sessions.
type sessionGen struct {
	w        *sessionStream
	src      *rng.Source
	base     string
	lo, hi   int // session index range [lo, hi)
	n        int
	body     []byte
	sess     int
	tpl      *eventTemplate
	ingests  int
	drop     int // 1-based ingest to drop on the client side; 0 = none
	boundsOK int64
	boundsN  int64
}

func (w *sessionStream) client(c int) generator {
	per := len(w.ids) / w.r.clients
	g := &sessionGen{w: w, src: w.r.clientRNG(c), base: w.r.st.url(0) + "/v1/sessions/", lo: c * per, hi: (c + 1) * per}
	if c == 0 {
		g.drop = w.r.opt.hooks.dropIngest
	}
	return g
}

func (g *sessionGen) next(r *request) {
	g.n++
	g.sess = g.lo + g.src.Intn(g.hi-g.lo)
	if g.n%8 == 0 {
		*r = request{method: http.MethodGet, url: g.base + g.w.ids[g.sess], kind: kindSessionGet}
		return
	}
	g.tpl = &g.w.templates[g.src.Intn(len(g.w.templates))]
	if g.ingests++; g.ingests == g.drop {
		// The client believes it sent this batch; the server never sees it.
		g.w.sess[g.sess].add(g.tpl)
		g.next(r)
		return
	}
	g.body = g.tpl.render(g.body[:0], g.w.sess[g.sess].lastUse)
	*r = request{method: http.MethodPost, url: g.base + g.w.ids[g.sess] + "/events", body: g.body, kind: kindIngest}
}

func (g *sessionGen) reply(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.url, status, body)
	}
	switch r.kind {
	case kindIngest:
		g.w.sess[g.sess].add(g.tpl)
	case kindSessionGet:
		g.boundsN++
		if bytes.Contains(body, []byte(`"bounds_source":"hit"`)) {
			g.boundsOK++
		}
	}
	return nil
}

// sessionView is the part of GET /v1/sessions/{id} the check reads.
type sessionView struct {
	LastUse  int64 `json:"last_use"`
	Estimate struct {
		Transmits   int64 `json:"transmits"`
		Substitutes int64 `json:"substitutes"`
		Deletes     int64 `json:"deletes"`
		Inserts     int64 `json:"inserts"`
	} `json:"estimate"`
}

func (w *sessionStream) check(r *runner) error {
	for i, id := range w.ids {
		body, err := get(r.hc, r.st.url(0)+"/v1/sessions/"+id)
		if err != nil {
			return err
		}
		var v sessionView
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("session %s: %w", id, err)
		}
		got := [4]int64{v.Estimate.Transmits, v.Estimate.Substitutes, v.Estimate.Deletes, v.Estimate.Inserts}
		if want := w.sess[i]; v.LastUse != want.lastUse || got != want.counts {
			return fmt.Errorf("session %s: server has last_use=%d T/S/D/I=%v, client sent last_use=%d T/S/D/I=%v",
				id, v.LastUse, got, want.lastUse, want.counts)
		}
	}
	return nil
}

// boundsHitRatio is the share of session reads whose bounds came from
// the LRU.
func (w *sessionStream) boundsHitRatio(gens []generator) float64 {
	var ok, n int64
	for _, g := range gens {
		if sg, isSession := g.(*sessionGen); isSession {
			ok += sg.boundsOK
			n += sg.boundsN
		}
	}
	return ratio(ok, n)
}

func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
