package hotalloc

type point struct{ x, y float64 }

func makePerIteration(n int) [][]float64 {
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 8) // want "allocated per loop iteration"
		row[0] = float64(i)
		out = append(out, row)
		out = append(out, append([]float64(nil), row...)) // want "copies into a fresh backing array per loop iteration"
	}
	return out
}

func compositePerIteration(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		row := []float64{1, 2, 3} // want "allocated per loop iteration"
		t += row[i%3]
	}
	return t
}

func pointerLiteralPerIteration(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		p := &point{x: float64(i)} // want "allocated per loop iteration"
		t += p.x
	}
	return t
}

func concatPerIteration(parts []string) string {
	s := ""
	for _, p := range parts {
		s += p // want "string concatenation per loop iteration"
	}
	return s
}

func concatBinaryPerIteration(parts []string) string {
	s := ""
	for _, p := range parts {
		s = s + p + "." // want "string concatenation per loop iteration"
	}
	return s
}

func closurePerIteration(n int) int {
	calls := 0
	for i := 0; i < n; i++ {
		f := func() int { return calls + i } // want "closure capturing enclosing variables"
		calls = f()
	}
	return calls
}

// allocator's make sets its allocates-effect bit; the loop-borne call
// below is reported interprocedurally.
func allocator(n int) []float64 { return make([]float64, n) }

func callsAllocator(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		v := allocator(8) // want "call to allocator allocates per loop iteration"
		t += v[0]
	}
	return t
}

// The allocation happens two hops down the call chain; the effect bit
// propagates transitively.
func allocatorWrapper() []float64 { return allocator(4) }

func callsWrapper(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += allocatorWrapper()[0] // want "call to allocatorWrapper allocates per loop iteration"
	}
	return t
}

func makeInLoopCondition(xs []float64) int {
	count := 0
	for i := 0; i < len(make([]int, len(xs))); i++ { // want "allocated per loop iteration"
		count++
	}
	return count
}
