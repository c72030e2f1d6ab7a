package capserver

import "sync"

// workerPool runs compute jobs on a fixed set of workers behind a
// bounded queue. Admission is non-blocking: trySubmit reports false
// when the queue is full, which the serving path converts into a 429.
// The pool never drops an admitted job — close drains the queue before
// stopping the workers, which is what lets Shutdown promise that every
// accepted request completes.
type workerPool struct {
	jobs      chan func()
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// newWorkerPool starts workers goroutines behind a queue of depth
// queueDepth.
func newWorkerPool(workers, queueDepth int) *workerPool {
	p := &workerPool{jobs: make(chan func(), queueDepth)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// trySubmit enqueues job if the queue has room; it reports whether the
// job was admitted.
func (p *workerPool) trySubmit(job func()) bool {
	select {
	case p.jobs <- job:
		return true
	default:
		return false
	}
}

// depth returns the number of queued (not yet running) jobs.
func (p *workerPool) depth() int { return len(p.jobs) }

// close drains the queue and stops the workers. It must only be
// called after submitters have stopped (the embedding http.Server has
// drained its handlers before Server.Shutdown calls it).
func (p *workerPool) close() {
	p.closeOnce.Do(func() { close(p.jobs) })
	p.wg.Wait()
}
