package lockheld

import "sync"

type store struct {
	mu   sync.Mutex
	vals map[string]int
}

// Release before blocking: the send happens outside the critical
// section.
func (s *store) put(ch chan int, k string) {
	s.mu.Lock()
	s.vals[k]++
	n := len(s.vals)
	s.mu.Unlock()
	ch <- n
}

// Deferred unlock over a straight-line critical section.
func (s *store) get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[k]
}

// Spawning under a lock is fine: the goroutine blocks, not the
// spawner, and its own lock use is concurrent rather than nested.
func (s *store) spawn(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { ch <- 1 }()
}

type rw struct {
	mu sync.RWMutex
	v  int
}

func (r *rw) read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.v
}

// An early unlock-and-return branch leaves the region running to the
// final Unlock; a select with default never blocks, so the send in its
// clause is not reported.
func (s *store) take(ch chan int, k string) {
	s.mu.Lock()
	if s.vals[k] == 0 {
		s.mu.Unlock()
		return
	}
	s.vals[k]--
	select {
	case ch <- s.vals[k]:
	default:
	}
	n := s.vals[k]
	s.mu.Unlock()
	ch <- n
}

// An Unlock in a nested block releases the lock for the rest of that
// block, so the send after it is outside the region.
func (s *store) handoff(ch chan int, k string) {
	s.mu.Lock()
	if n := s.vals[k]; n > 0 {
		s.mu.Unlock()
		ch <- n
		return
	}
	s.vals[k] = 1
	s.mu.Unlock()
}

// The literal built under the lock runs later, when the lock is no
// longer held: a function literal is a body of its own.
func (s *store) later(ch chan int, k string) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.vals[k]
	return func() { ch <- n }
}

// A wait deferred before the lock is taken runs after the deferred
// unlock.
func (s *store) waitAfter(wg *sync.WaitGroup, k string) {
	defer wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[k]++
}

// A wait deferred inside the critical section runs at the function's
// end, after the explicit unlock.
func (s *store) waitAtEnd(wg *sync.WaitGroup, k string) {
	s.mu.Lock()
	defer wg.Wait()
	s.vals[k]++
	s.mu.Unlock()
}

// A go statement's call blocks on the new goroutine, not the spawner's
// lock; the receive among the arguments of the second runs after the
// unlock.
func (s *store) spawnAfter(ch chan int, wg *sync.WaitGroup, f func(int)) {
	s.mu.Lock()
	s.vals["x"]++
	go wg.Wait()
	s.mu.Unlock()
	go f(<-ch)
}
