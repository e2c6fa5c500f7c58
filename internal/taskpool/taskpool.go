// Package taskpool is the one execution layer of the tree's ensembles:
// the ESSE members (workflow), the TL fans of an acoustic climate
// (acoustics) and the modes of a subspace propagation (core). A Pool
// hands the indices 0, 1, 2, … up to a target, which may grow while it
// runs, to a fixed number of workers and gives each one back to the
// goroutine that called Run, exactly once and in index order.
package taskpool

import (
	"context"
	"sync"
	"sync/atomic"

	"esse/internal/telemetry"
)

// Pool runs one ensemble of independent tasks: set Task and Commit, and
// Workers and Phase as needed, then call Run. Grow and Stop steer a live
// run from inside Commit.
type Pool[R any] struct {
	// Workers is the pool width; values below 1 mean 1.
	Workers int
	// Task computes one index on a worker. lane, 1..Workers, is the
	// worker's trace tid (lane 0 is the committer's). Once ctx is done
	// (the caller's, or a Commit failed) Task must return promptly.
	Task func(ctx context.Context, lane int64, index int) R
	// Commit receives every dispatched index exactly once, on the
	// goroutine that called Run, in index order. An error ends the run:
	// the tasks in flight are cancelled, no later index is committed,
	// and Run returns the error once every worker has exited.
	Commit func(index int, r R) error
	// Phase, when non-nil, hears that an index is queued (from the
	// dispatcher), then dispatched and running (from the worker that
	// took it, before Task). The terminal phase is the caller's to emit:
	// only it knows the outcome.
	Phase func(index int, ph telemetry.Phase)

	target  atomic.Int64
	grown   chan struct{}
	stopped chan struct{}
}

type result[R any] struct {
	index int
	r     R
}

// Grow raises the target to n. Call it from Commit.
func (p *Pool[R]) Grow(n int) {
	p.target.Store(int64(n))
	select {
	case p.grown <- struct{}{}:
	default:
	}
}

// Stop ends dispatching; the tasks already dispatched finish and are
// committed. Call it from Commit, so only Run's goroutine closes stopped.
// A run also stops once every index below the target is committed.
func (p *Pool[R]) Stop() {
	select {
	case <-p.stopped:
	default:
		close(p.stopped)
	}
}

// Run dispatches the indices below target, and more as Commit grows it,
// until they run out, Commit calls Stop, ctx is done or Commit fails,
// and returns once every worker has exited. n is the number of indices
// committed; with a nil error every dispatched index was, so a caller
// counts the indices from n up as never started.
func (p *Pool[R]) Run(ctx context.Context, target int) (n int, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := max(p.Workers, 1)
	phase := p.Phase
	if phase == nil {
		phase = func(int, telemetry.Phase) {}
	}
	p.target.Store(int64(target))
	p.grown = make(chan struct{}, 1)
	p.stopped = make(chan struct{})
	jobs := make(chan int)
	results := make(chan result[R], 2*workers)

	// Dispatcher: every index it sends comes back as exactly one result,
	// so the committer never waits on a gap. Past the target it offers
	// nothing (a nil channel) and waits for Grow.
	go func() {
		defer close(jobs)
		for next, queued := 0, -1; ; {
			var offer chan<- int
			if next < int(p.target.Load()) {
				offer = jobs
				if queued < next {
					phase(next, telemetry.PhaseQueued)
					queued = next
				}
			}
			select {
			case offer <- next:
				next++
			case <-p.grown:
			case <-ctx.Done():
				return
			case <-p.stopped:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 1; w <= workers; w++ {
		lane := int64(w)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Emitted by the receiving worker, not by the dispatcher
				// after its send, so that queued < dispatched < running
				// holds per index in the event stream.
				phase(i, telemetry.PhaseDispatched)
				phase(i, telemetry.PhaseRunning)
				results <- result[R]{i, p.Task(ctx, lane, i)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer. After a failed Commit the loop keeps draining so
	// the workers can exit.
	if target <= 0 {
		p.Stop()
	}
	pending := make(map[int]R)
	for res := range results {
		pending[res.index] = res.r
		for r, ok := pending[n]; ok && err == nil; r, ok = pending[n] {
			delete(pending, n)
			if err = p.Commit(n, r); err != nil {
				cancel()
				break
			}
			if n++; n >= int(p.target.Load()) {
				p.Stop()
			}
		}
	}
	return n, err
}
