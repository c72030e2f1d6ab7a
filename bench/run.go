package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/capserver"
	"repro/internal/rng"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	// seconds is the measured time, reference slices included.
	seconds float64
	trace   bool
	// traceOut, when set, receives the run's spans as JSONL.
	traceOut string
	// workDir holds the run's temporary store directories.
	workDir string
	scale   scale
	hooks   hooks
	log     io.Writer
}

// scale sizes a run. fullScale is the benchmark; tests shrink it.
type scale struct {
	warmup time.Duration
	// Set-up repeats at least setupMin times and until it has taken
	// setupBudget, at most setupMax times.
	setupMin, setupMax int
	setupBudget        time.Duration
	hotBounds          int
	hotPredict         int
	ringPoints         int
	ringCache          int
	sessions           int
	events             int
	// batchPoints is the cold-grid batch size; earlierBatches the size
	// of the sweep its set-up runs.
	batchPoints, earlierBatches int
	// sample is the oracle sample size in points (cold-grid, ring-spill).
	sample int
	// kernelPoints is how many cold-grid points the traced run times the
	// kernels on; sessionBatches how many batches it decodes and applies.
	kernelPoints   int
	sessionBatches int
	// slice is the period of the measured phases: two thirds workload,
	// one third speed reference. Traced runs alternate tracing off and on
	// from one workload slice to the next.
	slice time.Duration
	// tick is the traced run's TickHealth cadence.
	tick time.Duration
}

var fullScale = scale{
	warmup:         2 * time.Second,
	setupMin:       3,
	setupMax:       100,
	setupBudget:    time.Second,
	hotBounds:      192,
	hotPredict:     64,
	ringPoints:     4096,
	ringCache:      256,
	sessions:       1024,
	events:         256,
	batchPoints:    16,
	earlierBatches: 8,
	sample:         256,
	kernelPoints:   48,
	sessionBatches: 64,
	slice:          900 * time.Millisecond,
	tick:           daemonHealthTick,
}

// hooks are seeded mutations the non-vacuity tests use to show that
// each correctness check can fail.
type hooks struct {
	wrapStore    func(capserver.ResultStore) capserver.ResultStore
	mutateOracle func([]byte) []byte
	dropIngest   int
}

// runner is one run's state.
type runner struct {
	opt     options
	spec    spec
	clients int
	hc      *http.Client
	tr      *tracer
	st      *stack
	dirs    []string
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	checkErr          error
}

// clientRNG returns client c's request stream.
func (r *runner) clientRNG(c int) *rng.Source {
	return rng.NewStream(r.opt.seed, uint64(100+c))
}

// healthTick is the daemon's tick untraced; traced runs tick by hand.
func (r *runner) healthTick() time.Duration {
	if r.tr != nil {
		return 0
	}
	return daemonHealthTick
}

// storeDir makes a fresh store directory under the run's work dir.
func (r *runner) storeDir() (string, error) {
	if err := os.MkdirAll(r.opt.workDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(r.opt.workDir, "store-")
	if err == nil {
		r.dirs = append(r.dirs, dir)
	}
	return dir, err
}

// stop shuts the stack down, keeping its stores on disk for the next
// set-up.
func (r *runner) stop() error {
	if r.st == nil {
		return nil
	}
	r.hc.Transport.(*http.Transport).CloseIdleConnections()
	err := r.st.close()
	r.st = nil
	return err
}

// teardown stops the stack and removes the run's stores.
func (r *runner) teardown() error {
	errs := []error{r.stop()}
	for _, d := range r.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	r.dirs = nil
	return errors.Join(errs...)
}

// run executes one benchmark run. A failed correctness check is
// reported in result.checkErr; an error means the run itself broke.
func run(opt options) (res result, err error) {
	sp, ok := specFor(opt.workload)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.log == nil {
		opt.log = io.Discard
	}
	r := &runner{opt: opt, spec: sp, clients: runtime.GOMAXPROCS(0)}
	r.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.clients + 1}}
	if opt.trace {
		r.tr = newTracer(1<<18, sp.traceEvery)
	}
	ref, err := startReference(r.hc, r.clients)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}()
	wl := sp.make()
	if err := wl.prepare(r); err != nil {
		return res, errors.Join(fmt.Errorf("%s prepare: %w", sp.name, err), r.teardown())
	}

	// Set-up: construct the stack and prefill it, several times; the
	// last one serves the run. It is timed against reference slices
	// taken just before and after, the machine's speed while it ran.
	ref.slice(opt.scale.slice / 2)
	var setups []float64
	for i, spent := 0, 0.0; i < opt.scale.setupMax && (i < opt.scale.setupMin || spent < opt.scale.setupBudget.Seconds()); i++ {
		if err := r.stop(); err != nil {
			return res, errors.Join(err, r.teardown())
		}
		runtime.GC()
		start := time.Now()
		err := wl.setup(r)
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[i]
		if err != nil {
			return res, errors.Join(fmt.Errorf("%s setup: %w", sp.name, err), r.teardown())
		}
	}
	defer func() {
		if terr := r.teardown(); err == nil {
			err = terr
		}
	}()
	ref.slice(opt.scale.slice / 2)
	setupSpeed := ref.speed()
	ref.reset()
	fmt.Fprintf(opt.log, "%s: %d set-ups, median %.4f s at speed %.4f; warming up %v\n",
		sp.name, len(setups), quantile(setups, 0.5), setupSpeed, opt.scale.warmup)

	cs := make([]*client, r.clients)
	gens := make([]generator, r.clients)
	for c := range cs {
		gens[c] = wl.client(c)
		cs[c] = &client{hc: r.hc, gen: gens[c], tr: r.tr, probe: r.st.url(c%len(r.st.members)) + "/v1/healthz",
			lat: make([]uint32, 0, int(sp.maxRate*opt.seconds)/r.clients+1024)}
	}
	if w := closedLoop(cs, opt.scale.warmup, false); w.failed > 0 {
		return res, fmt.Errorf("%s warm-up: %d failed: %s", sp.name, w.failed, strings.Join(w.errs, "; "))
	}

	// The measured seconds run as slices that spend two thirds on the
	// workload and one third on the speed reference. An untraced run is
	// all closed loop; a traced run spends 60% on the closed loop and 40%
	// on the open loop.
	slices := func(share float64) int {
		return max(1, int(math.Round(share*opt.seconds/opt.scale.slice.Seconds())))
	}
	closedShare := 1.0
	if r.tr != nil {
		closedShare = 0.6
	}
	capBefore, clusterBefore := r.st.capCounters(), r.st.clusterCounters()
	ticks := r.startTicks()
	heap := startHeapSampler()
	cl, traced, ms := r.closedPhase(cs, ref, heap, slices(closedShare))
	capDelta, clusterDelta := r.st.capCounters().sub(capBefore), r.st.clusterCounters().sub(clusterBefore)
	var op phase
	if r.tr != nil {
		op = r.openPhase(cs, ref, slices(1-closedShare))
	}
	heapMean := heap.mean()
	tickUS := ticks.stop()
	speed := ref.speed()

	res.attempted = cl.ok + cl.failed + traced.ok + traced.failed + op.ok + op.failed
	res.failed = cl.failed + traced.failed + op.failed
	if errs := append(append(cl.errs, traced.errs...), op.errs...); len(errs) > 0 {
		fmt.Fprintf(opt.log, "%s: %d failed operations, first: %s\n", sp.name, res.failed, errs[0])
	}
	res.checkErr = wl.check(r)

	m := map[string]float64{}
	if r.tr == nil {
		fmt.Fprintf(opt.log, "%s: speed index %.4f; raw throughput %.1f/s\n", sp.name, speed, cl.rate())
		m["norm_throughput_rps"] = cl.normRate()
		m["norm_latency_p50_us"] = quantile(cl.lat, 0.50) / 1e3
		m["norm_latency_p95_us"] = quantile(cl.lat, 0.95) / 1e3
		m["setup_s"] = quantile(setups, 0.5) * setupSpeed
		m["heap_inuse_mb"] = (heapMean - sampleBytes(cs)) / (1 << 20)
	} else {
		m["bench.speed_index"] = speed
		l := layerInput{r: r, wl: wl, gens: gens, cs: cs, untraced: cl, traced: traced, open: op, mem: ms,
			cap: capDelta, cluster: clusterDelta, tickUS: tickUS, attempted: res.attempted, failed: res.failed}
		if err := l.metrics(m); err != nil {
			return res, err
		}
		if opt.traceOut != "" {
			if err := r.tr.writeJSONL(opt.traceOut); err != nil {
				return res, err
			}
		}
		if d := r.tr.dropped(); d > 0 {
			fmt.Fprintf(opt.log, "%s: trace buffer full, %d spans dropped\n", sp.name, d)
		}
	}
	res.metrics = m
	return res, nil
}

// memDelta is the runtime's allocation and GC activity over a span of
// operations.
type memDelta struct {
	ops                    int64
	allocBytes, gcs, pause uint64
}

// workShare is the part of each slice spent on the workload; the rest
// measures the speed reference.
func (r *runner) workShare() time.Duration { return r.opt.scale.slice * 2 / 3 }

// closedPhase runs n closed-loop slices, each followed by a reference
// slice. In a traced run the workload slices alternate tracing off and
// on, starting with off, so drift over the phase affects both sides
// alike, and the untraced slices' runtime activity is recorded. It
// returns the untraced and traced totals, with the latency samples on
// the untraced total.
//
// The machine's speed drifts within a run, so each untraced slice is
// normalized by the speed of the reference slices either side of it:
// its latency samples are multiplied by that speed and its wall time,
// the base of normRate, too.
func (r *runner) closedPhase(cs []*client, ref *reference, heap *heapSampler, n int) (off, on phase, md memDelta) {
	resetSamples(cs)
	var before, after runtime.MemStats
	marks := make([]int, len(cs))
	prev := 0.0
	for i := 0; i < n; i++ {
		traced := r.tr != nil && i%2 == 1
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		for c := range cs {
			marks[c] = len(cs[c].lat)
		}
		heap.active.Store(true)
		var p phase
		if traced {
			on.add(closedLoop(cs, r.workShare(), true))
		} else {
			runtime.ReadMemStats(&before)
			p = closedLoop(cs, r.workShare(), false)
			runtime.ReadMemStats(&after)
			md.ops += p.ok
			md.allocBytes += after.TotalAlloc - before.TotalAlloc
			md.gcs += uint64(after.NumGC - before.NumGC)
			md.pause += after.PauseTotalNs - before.PauseTotalNs
		}
		heap.active.Store(false)
		if r.tr != nil {
			r.tr.on.Store(false)
		}
		next := ref.slice(r.opt.scale.slice - r.workShare())
		speed := next
		if prev > 0 {
			speed = math.Sqrt(prev * next)
		}
		prev = next
		if !traced {
			for c, cl := range cs {
				scaleSamples(cl.lat[marks[c]:], speed)
			}
			p.normWall = p.wall.Seconds() * speed
			off.add(p)
		}
	}
	off.lat = samples(cs)
	return off, on, md
}

// openPhase runs n open-loop slices at the workload's fixed rate, each
// followed by a reference slice.
func (r *runner) openPhase(cs []*client, ref *reference, n int) phase {
	resetSamples(cs)
	var op phase
	for i := 0; i < n; i++ {
		op.add(openLoop(cs, r.workShare(), r.spec.openRate))
		ref.slice(r.opt.scale.slice - r.workShare())
	}
	op.lat = samples(cs)
	return op
}

// ticker times Server.TickHealth on every member at the daemon's
// cadence, in traced runs (untraced runs keep the daemon's own ticker).
type ticker struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	us    []float64
}

func (r *runner) startTicks() *ticker {
	t := &ticker{stopc: make(chan struct{})}
	if r.tr == nil {
		return t
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tk := time.NewTicker(r.opt.scale.tick)
		defer tk.Stop()
		for {
			for _, m := range r.st.members {
				start := time.Now()
				m.srv.TickHealth()
				t.us = append(t.us, float64(time.Since(start).Nanoseconds())/1e3)
			}
			select {
			case <-tk.C:
			case <-t.stopc:
				return
			}
		}
	}()
	return t
}

// stop ends the ticks and returns the median tick time in µs.
func (t *ticker) stop() float64 {
	close(t.stopc)
	t.wg.Wait()
	return quantile(t.us, 0.5)
}

// finite replaces NaN and Inf (empty or degenerate inputs) with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// defaultWorkDir is where stores and traces go, inside the checkout.
func defaultWorkDir() string { return filepath.Join(".bench_build", "work") }
