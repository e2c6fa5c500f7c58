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
