package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The speed reference. On a shared machine the same code runs up to
// twice as fast in one minute as in the next, so raw times from two runs
// are not comparable. Each run therefore also measures fixed work that
// no change to this repository can speed up, in short slices
// interleaved with the workload's: HTTP round trips to a standard
// library server through the benchmark's own clients, a floating-point
// kernel, and JSON decoding of an event line. The run's speed index is
// the geometric mean of the three rates, each over its rate on the
// machine the benchmark was calibrated on (2 vCPUs, Intel Xeon,
// go1.24), so 1.0 means "as fast as there"; time metrics are reported
// at that speed.
const (
	calHTTP  = 52000   // reference round trips per second
	calFloat = 115000  // float kernel calls per second
	calJSON  = 1440000 // event-line decodes per second
)

// reference runs the speed reference and accumulates its rates.
type reference struct {
	hs      *http.Server
	served  chan error
	cs      []*client
	workers int
	sums    [3]float64 // sum of per-slice rates: HTTP, float, JSON
	slices  int
}

// refBody is the reference server's response, the size of a typical
// bounds body.
var refBody = make([]byte, 400)

type refGen struct{ url string }

func (g refGen) next(r *request) { *r = request{method: http.MethodGet, url: g.url, kind: kindPoint} }

func (g refGen) reply(r *request, status int, body []byte) error { return nil }

func startReference(hc *http.Client, clients int) (*reference, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ref := &reference{served: make(chan error, 1), workers: clients}
	ref.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(refBody)
	})}
	go func() { ref.served <- ref.hs.Serve(l) }()
	for c := 0; c < clients; c++ {
		ref.cs = append(ref.cs, &client{hc: hc, gen: refGen{"http://" + l.Addr().String() + "/"}})
	}
	return ref, nil
}

// slice measures each of the three references for a third of d and
// returns the speed index of this slice alone.
func (ref *reference) slice(d time.Duration) float64 {
	rates := [3]float64{
		closedLoop(ref.cs, d/3, false).rate(),
		spin(d/3, ref.workers, floatKernel),
		spin(d/3, ref.workers, decodeLine),
	}
	for i, r := range rates {
		ref.sums[i] += r
	}
	ref.slices++
	return math.Cbrt(rates[0] / calHTTP * rates[1] / calFloat * rates[2] / calJSON)
}

// reset discards the slices measured so far.
func (ref *reference) reset() {
	ref.sums = [3]float64{}
	ref.slices = 0
}

// speed is the run's speed index so far.
func (ref *reference) speed() float64 {
	if ref.slices == 0 {
		return 1
	}
	n := float64(ref.slices)
	return math.Cbrt(ref.sums[0] / n / calHTTP * ref.sums[1] / n / calFloat * ref.sums[2] / n / calJSON)
}

func (ref *reference) close() error {
	err := ref.hs.Close()
	<-ref.served
	return err
}

// refSink keeps the reference loops' results observable.
var refSink atomic.Uint64

// spin runs work on the given number of goroutines for d and returns
// calls per second.
func spin(d time.Duration, workers int, work func() uint64) float64 {
	var wg sync.WaitGroup
	var calls atomic.Int64
	start := time.Now()
	end := start.Add(d)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			var s uint64
			for time.Now().Before(end) {
				s += work()
				n++
			}
			refSink.Add(s)
			calls.Add(n)
		}()
	}
	wg.Wait()
	return float64(calls.Load()) / time.Since(start).Seconds()
}

// floatKernel is a fixed log-and-multiply sweep over a small vector.
func floatKernel() uint64 {
	var v [256]float64
	for i := range v {
		v[i] = 1 + float64(i)/256
	}
	s := 0.0
	for it := 0; it < 4; it++ {
		for i := range v {
			v[i] = math.Log2(v[i]*1.0001+0.5) + 1
			s += v[i] * v[(i*7)%256]
		}
	}
	return uint64(s)
}

var refLine = []byte(`{"u":123456,"k":"S","s":11,"r":3}`)

// decodeLine decodes one session event line with encoding/json.
func decodeLine() uint64 {
	var ev struct {
		U *int64  `json:"u"`
		K *string `json:"k"`
		S *int64  `json:"s"`
		R *int64  `json:"r"`
	}
	if json.Unmarshal(refLine, &ev) != nil || ev.U == nil {
		return 0
	}
	return uint64(*ev.U)
}
