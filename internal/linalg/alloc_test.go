package linalg

import (
	"fmt"
	"testing"

	"esse/internal/rng"
)

// assertAllocs pins the steady-state heap cost of a hot kernel. The
// pins are the gate on allocation: a refactor that reintroduces a
// per-call or per-iteration allocation fails here.
func assertAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(20, fn); got != want {
		t.Errorf("%s: %.0f allocs/op, want %.0f", name, got, want)
	}
}

// spdMatrix builds a small well-conditioned SPD matrix.
func spdMatrix(n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1.0/float64(1+i+j))
		}
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestMulIntoAllocFree(t *testing.T) {
	// 16x16x16 = 4096 flops is far below parallelThreshold; 600x32x32 is
	// above it, and at GOMAXPROCS 1 (AllocsPerRun's) mulInto stays on the
	// calling goroutine. Neither touches the heap. (The parallel path,
	// above the threshold at GOMAXPROCS > 1, spawns worker goroutines, an
	// accepted cost amortised by size.)
	if 600*32*32 < parallelThreshold {
		t.Fatal("600x32x32 is below parallelThreshold")
	}
	s := rng.New(2)
	for _, rows := range []int{16, 600} {
		n := min(rows, 32)
		a, b, out := randomDense(s, rows, n), randomDense(s, n, n), NewDense(rows, n)
		assertAllocs(t, fmt.Sprintf("mulInto %dx%dx%d", rows, n, n), 0, func() {
			clear(out.Data)
			mulInto(out, a, b)
		})
	}
}

// GramSVD sizes σ and its column buffer once, so its count does not
// grow with the number of modes kept.
func TestGramSVDAllocsIndependentOfRank(t *testing.T) {
	gram := spdMatrix(32)
	few := testing.AllocsPerRun(20, func() { GramSVD(gram, 2) })
	all := testing.AllocsPerRun(20, func() { GramSVD(gram, 32) })
	if few != all {
		t.Errorf("GramSVD: %.0f allocs/op at k=2, %.0f at k=32, want equal", few, all)
	}
}

func TestOuterAddAllocFree(t *testing.T) {
	n := 32
	m := NewDense(n, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
		y[i] = float64(n - i)
	}
	assertAllocs(t, "OuterAdd", 0, func() {
		OuterAdd(m, 0.5, x, y)
	})
}

func TestCholeskySolveIntoAllocFree(t *testing.T) {
	n := 12
	a := spdMatrix(n)
	l, ok := Cholesky(a)
	if !ok {
		t.Fatal("Cholesky failed on SPD matrix")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i) - 3
	}
	y := make([]float64, n)
	x := make([]float64, n)
	assertAllocs(t, "cholesky solve (Into pair)", 0, func() {
		solveLowerTriInto(y, l, b)
		solveCholeskyTInto(x, l, y)
	})
}

func TestMatTVecDotAxpyAllocFree(t *testing.T) {
	n := 48
	a := spdMatrix(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	assertAllocs(t, "Dot", 0, func() { _ = Dot(x, x) })
	// MatVec/MatTVec return fresh slices by contract: exactly one
	// allocation, never more.
	assertAllocs(t, "MatVec", 1, func() { _ = MatVec(a, x) })
	assertAllocs(t, "MatTVec", 1, func() { _ = MatTVec(a, x) })
}

// The factorizations return fresh results; each count is what the
// result and its fixed scratch cost at the shape of the benchmark of
// the same kernel. ThinSVDGram's tall product is above the parallel
// threshold, but AllocsPerRun runs at GOMAXPROCS 1, where mulInto stays
// on the calling goroutine; a many-worker Mul's count would not hold.
func TestFactorizationAllocs(t *testing.T) {
	s := rng.New(1)
	a, b := randomDense(s, 32, 32), randomDense(s, 32, 32)
	assertAllocs(t, "Mul 32x32", 2, func() { Mul(a, b) })
	sq := randomDense(s, 64, 64)
	assertAllocs(t, "QR 64x64", 8, func() { QR(sq) })
	sym := Add(a, a.T())
	assertAllocs(t, "SymEig 32", 7, func() { SymEig(sym) })
	tall := randomDense(s, 2000, 50)
	assertAllocs(t, "ThinSVDGram 2000x50", 17, func() { ThinSVDGram(tall, 50) })
}
