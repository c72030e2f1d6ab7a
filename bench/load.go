package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capserver"
	"repro/internal/obs"
)

// reqKind classifies a client operation for the per-layer split.
type reqKind uint8

const (
	kindPoint      reqKind = iota + 1 // GET /v1/bounds or /v1/predict
	kindBatch                         // POST /v1/bounds:batch
	kindIngest                        // POST /v1/sessions/{id}/events
	kindSessionGet                    // GET /v1/sessions/{id}
	kindProbe                         // GET /v1/healthz, traced runs only
)

// request is one generated operation.
type request struct {
	method string
	url    string
	body   []byte
	kind   reqKind
	// forwarded marks a ring request sent to a member that does not own
	// its key.
	forwarded bool
}

// generator produces one client's requests from the workload seed and
// checks each reply inline. Inline checks are cheap (status, envelope
// counts); byte-level comparisons run after the measured phases.
type generator interface {
	next(r *request)
	reply(r *request, status int, body []byte) error
}

// failedLatency stands in for +Inf: a failed operation misses every
// latency limit.
const failedLatency = math.MaxUint32

// client is one closed- or open-loop client goroutine's state.
type client struct {
	hc    *http.Client
	gen   generator
	tr    *tracer
	probe string // healthz URL probed in traced slices
	buf   bytes.Buffer
	sent  int64

	lat              []uint32 // latency samples of the current phase, ns
	ok, failed, late int64
	errs             []string

	// Queue and compute times reported by capserver's trace-gated
	// response headers, traced slices only.
	queueUS, computeUS []float64
}

// do runs one request and returns its status and body; the body is
// valid until the next call.
func (c *client) do(r *request, traced bool) (int, []byte, error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequest(r.method, r.url, rd)
	if err != nil {
		return 0, nil, err
	}
	var sp span
	if traced {
		sp = span{ID: c.tr.newID(), Name: spanClient, Arg: int64(r.kind)}
		if r.forwarded {
			sp.Arg |= 1 << 8
		}
		sp.Req = sp.ID
		id := strconv.FormatInt(sp.ID, 10)
		hr.Header.Set(reqHeader, id)
		hr.Header.Set(spanHeader, id)
		hr.Header.Set(obs.TraceHeader, "bench-"+id)
		sp.Start = c.tr.now()
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		sp.End = c.tr.now()
		c.tr.record(sp)
		if q := resp.Header.Get(capserver.TraceQueueHeader); q != "" && r.kind != kindProbe {
			qv, _ := strconv.ParseFloat(q, 64)
			cv, _ := strconv.ParseFloat(resp.Header.Get(capserver.TraceComputeHeader), 64)
			c.queueUS = append(c.queueUS, qv)
			c.computeUS = append(c.computeUS, cv)
		}
	}
	if err != nil {
		return 0, nil, fmt.Errorf("read %s: %w", r.url, err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// step issues the client's next operation and accounts for it. It
// returns the operation's latency measured from base (its due time in
// an open loop, its send time in a closed loop), or 0 for a probe. In a
// traced slice one request in tracer.every is traced, and every 16th
// traced request is a healthz probe instead.
func (c *client) step(traced bool, base time.Time) uint32 {
	var r request
	c.sent++
	traced = traced && c.sent%c.tr.every == 0
	if traced && c.sent%(16*c.tr.every) == 0 {
		r = request{method: http.MethodGet, url: c.probe, kind: kindProbe}
	} else {
		c.gen.next(&r)
	}
	status, body, err := c.do(&r, traced)
	d := time.Since(base)
	if err == nil && r.kind != kindProbe {
		err = c.gen.reply(&r, status, body)
	} else if err == nil && status != http.StatusOK {
		err = fmt.Errorf("healthz probe: status %d", status)
	}
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
		return failedLatency
	}
	if r.kind == kindProbe {
		return 0
	}
	c.ok++
	if d >= failedLatency {
		return failedLatency - 1
	}
	return uint32(d)
}

// keep appends a latency sample while the preallocated buffer has room.
func (c *client) keep(ns uint32) {
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, ns)
	}
}

// phase is the outcome of one measured interval across all clients.
type phase struct {
	ok, failed, late int64
	wall             time.Duration
	// normWall is the wall time in seconds at the calibration machine's
	// speed (closed-loop untraced slices only).
	normWall float64
	lat      []uint32
	errs     []string
}

func (p phase) rate() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.ok) / p.wall.Seconds()
}

// normRate is the rate at the calibration machine's speed.
func (p phase) normRate() float64 { return ratio(float64(p.ok), p.normWall) }

// scaleSamples multiplies latency samples by a speed index, leaving
// failures at failedLatency.
func scaleSamples(lat []uint32, speed float64) {
	for i, ns := range lat {
		if ns != failedLatency {
			lat[i] = uint32(min(float64(ns)*speed, failedLatency-1))
		}
	}
}

// resetCounts clears the clients' per-slice counters.
func resetCounts(cs []*client) {
	for _, c := range cs {
		c.ok, c.failed, c.late = 0, 0, 0
	}
}

// sampleBytes is the size of the clients' preallocated latency buffers.
// They are sized by the run length, not by the service, so
// heap_inuse_mb leaves them out.
func sampleBytes(cs []*client) float64 {
	n := 0
	for _, c := range cs {
		n += cap(c.lat) * 4 // uint32 samples
	}
	return float64(n)
}

// resetSamples empties the latency buffers for a new phase.
func resetSamples(cs []*client) {
	for _, c := range cs {
		c.lat = c.lat[:0]
	}
}

// counts sums the clients' per-slice counters and errors.
func counts(cs []*client, wall time.Duration) phase {
	p := phase{wall: wall}
	for _, c := range cs {
		p.ok += c.ok
		p.failed += c.failed
		p.late += c.late
		p.errs = append(p.errs, c.errs...)
		c.errs = nil
	}
	return p
}

// samples merges the clients' latency samples.
func samples(cs []*client) []uint32 {
	var lat []uint32
	for _, c := range cs {
		lat = append(lat, c.lat...)
	}
	return lat
}

// add accumulates a slice into a phase total.
func (p *phase) add(q phase) {
	p.ok += q.ok
	p.failed += q.failed
	p.late += q.late
	p.wall += q.wall
	p.normWall += q.normWall
	p.errs = append(p.errs, q.errs...)
}

// closedLoop runs every client back to back for d: each sends its next
// request as soon as the previous reply arrived. Latency samples
// accumulate in the clients' buffers.
func closedLoop(cs []*client, d time.Duration, traced bool) phase {
	resetCounts(cs)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(end) {
				if ns := c.step(traced, time.Now()); ns != 0 {
					c.keep(ns)
				}
			}
		}(c)
	}
	wg.Wait()
	return counts(cs, time.Since(start))
}

// lateAfter is the send delay past the due time beyond which the
// generator counts itself late.
const lateAfter = time.Millisecond

// openLoop sends at a fixed aggregate rate for d, on a schedule that
// does not wait for replies beyond each client's one request in
// flight. Latency runs from each request's due time, so a stall also
// charges the requests queued behind it.
func openLoop(cs []*client, d time.Duration, rate float64) phase {
	resetCounts(cs)
	interval := time.Duration(float64(len(cs)) / rate * float64(time.Second))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		offset := time.Duration(i) * interval / time.Duration(len(cs))
		go func(c *client) {
			defer wg.Done()
			for k := 0; ; k++ {
				due := start.Add(offset + time.Duration(k)*interval)
				if !due.Before(end) {
					return
				}
				sleepUntil(due)
				if time.Since(due) > lateAfter {
					c.late++
				}
				c.keep(c.step(false, due))
			}
		}(c)
	}
	wg.Wait()
	return counts(cs, time.Since(start))
}

// heapSampler averages the runtime's HeapInuse, sampled every 100 ms
// while active.
type heapSampler struct {
	active atomic.Bool
	stop   chan struct{}
	done   chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		var ms runtime.MemStats
		var total, n float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if h.active.Load() {
					runtime.ReadMemStats(&ms)
					total += float64(ms.HeapInuse)
					n++
				}
			case <-h.stop:
				h.done <- total / max(n, 1)
				return
			}
		}
	}()
	return h
}

// mean stops the sampler and returns the mean HeapInuse in bytes.
func (h *heapSampler) mean() float64 {
	close(h.stop)
	return <-h.done
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile[T uint32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[lo+1])*frac
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
