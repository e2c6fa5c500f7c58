package rng

import (
	"math"
	"testing"
)

func TestDeterministicReplay(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds produced %d/100 equal draws", same)
	}
}

func TestSplitIsPure(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(3)
	c2 := parent.Split(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split with the same id must produce identical children")
		}
	}
}

func TestSplitChildrenIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams produced %d/100 equal draws", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(12)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(13)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) value %d drawn %d times out of 70000; poor uniformity", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(14)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestNormVec(t *testing.T) {
	s := New(16)
	v := s.NormVec(nil, 64)
	if len(v) != 64 {
		t.Fatalf("NormVec length = %d, want 64", len(v))
	}
	reuse := make([]float64, 128)
	w := s.NormVec(reuse, 32)
	if len(w) != 32 {
		t.Fatalf("NormVec reuse length = %d, want 32", len(w))
	}
	if &w[0] != &reuse[0] {
		t.Fatal("NormVec did not reuse the provided buffer")
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(20)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit fraction = %v", frac)
	}
}

// TestDrawsDoNotAllocate: ocean.Step draws thousands of normals a step,
// so a draw must stay off the heap.
func TestDrawsDoNotAllocate(t *testing.T) {
	s := New(1)
	if n := testing.AllocsPerRun(200, func() { s.Uint64() }); n != 0 {
		t.Errorf("Uint64: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Norm() }); n != 0 {
		t.Errorf("Norm: %v allocs/op, want 0", n)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += s.Norm()
	}
	_ = sink
}
