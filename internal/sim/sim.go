// Package sim provides a small discrete-event simulation kernel used by
// the scheduler substrate (internal/sched): a virtual clock and a
// time-ordered event queue with deterministic FIFO tie-breaking for
// events scheduled at the same instant.
package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

// eventQueue orders events by time, then insertion sequence.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Kernel is a discrete-event simulation executive. The zero value is
// ready to use with the clock at 0.
type Kernel struct {
	now   float64
	seq   uint64
	queue eventQueue
}

// Now returns the current simulation time.
func (k *Kernel) Now() float64 { return k.now }

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return len(k.queue) }

// Schedule enqueues fn to run after the given non-negative delay. It
// returns an error for negative delays or nil callbacks.
func (k *Kernel) Schedule(delay float64, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %v", delay)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event callback")
	}
	k.seq++
	heap.Push(&k.queue, &event{at: k.now + delay, seq: k.seq, fn: fn})
	return nil
}

// RunUntil executes events with time <= deadline; remaining events stay
// queued and the clock advances to the deadline if it ran past fewer
// events. It returns the number of events executed.
func (k *Kernel) RunUntil(deadline float64) int {
	executed := 0
	for len(k.queue) > 0 && k.queue[0].at <= deadline {
		e := heap.Pop(&k.queue).(*event)
		k.now = e.at
		e.fn()
		executed++
	}
	if k.now < deadline {
		k.now = deadline
	}
	return executed
}
