package atomicmix

import "sync/atomic"

type stats struct{ total atomic.Int64 }

func (s *stats) rmwField() {
	s.total.Store(s.total.Load() + 1) // want "read-modify-write of .* is two atomic operations"
}

func rmwLocal() {
	var n atomic.Int64
	n.Store(n.Load() + 1) // want "read-modify-write of .* is two atomic operations"
}
