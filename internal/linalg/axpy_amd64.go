package linalg

// axpyAVX2 is axpyGo four lanes wide, bit for bit (axpy_amd64.s). len(y)
// must equal len(x).
//
//go:noescape
func axpyAVX2(y []float64, a float64, x []float64)

func cpuHasAVX2() bool

// The AVX2 body replaces the Go loop where CPUID shows it. A variable
// initialiser naming axpy runs after axpy's own; an init function would
// too, but scripts/unlinked.go cannot match its symbol (linalg.init.0).
var _ = func() bool {
	if cpuHasAVX2() {
		axpy = axpyAVX2
	}
	return true
}()
