package atomicmix

import "sync/atomic"

var src, dst atomic.Int64

// Add is one operation, a Load feeding a CompareAndSwap is the CAS
// loop, and a Store of another atomic's Load is a copy.
func (s *stats) ok(d int64) {
	s.total.Add(d)
	for old := s.total.Load(); !s.total.CompareAndSwap(old, old+d); old = s.total.Load() {
	}
	dst.Store(src.Load())
}
