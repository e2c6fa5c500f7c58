package hotalloc

// Hoisted buffer, reused every iteration.
func hoisted(n int) float64 {
	buf := make([]float64, 8)
	t := 0.0
	for i := 0; i < n; i++ {
		buf[0] = float64(i)
		buf = append(buf[:0], buf[:1]...) // the copy idiom onto a hoisted backing array
		t += buf[0]
	}
	return t
}

// Lazy-init guards amortize: the allocation runs once, not per
// iteration.
func lazyInit(n int) float64 {
	var buf []float64
	t := 0.0
	for i := 0; i < n; i++ {
		if buf == nil {
			buf = make([]float64, 8)
		}
		if cap(buf) < n {
			buf = make([]float64, n)
		}
		t += buf[0]
	}
	return t
}

type shaped struct {
	rows, cols int
	data       []float64
}

// The reallocate-on-shape-change variant: an || chain anchored by a
// nil check is still a lazy guard.
func shapeGuard(s *shaped, n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		if s.data == nil || s.rows != n {
			s.data = make([]float64, n)
			s.rows = n
		}
		t += s.data[0]
	}
	return t
}

// A terminating branch runs at most once per loop.
func terminatingBranch(xs []float64) []float64 {
	for _, x := range xs {
		if x < 0 {
			bad := make([]float64, 1)
			bad[0] = x
			return bad
		}
	}
	return nil
}

// Non-capturing literals compile to static functions: no allocation.
func nonCapturing(n int) int {
	t := 0
	for i := 0; i < n; i++ {
		f := func(v int) int { return v * 2 }
		t = f(t)
	}
	return t
}

// An immediately invoked literal's body runs inline; the creation is
// not a per-iteration heap cost.
func immediatelyInvoked(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += func() float64 { return float64(i) }()
	}
	return t
}

type cache struct{ buf []float64 }

func (c *cache) get(n int) []float64 {
	if c.buf == nil {
		c.buf = make([]float64, n)
	}
	return c.buf
}

// The callee's only allocation is lazy-guarded, so its allocates
// effect is amortized and the loop-borne call is clean.
func callsCache(c *cache, n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += c.get(8)[0]
	}
	return t
}

// Value struct literals need not allocate.
func valueLiteral(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		p := point{x: float64(i)}
		t += p.x
	}
	return t
}

// Constant concatenation folds at compile time.
func constConcat(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s = "a" + "b"
	}
	return s
}
