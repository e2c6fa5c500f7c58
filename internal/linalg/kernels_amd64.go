package linalg

// axpyAVX2 is axpyGo four lanes wide, bit for bit (axpy_amd64.s). len(y)
// must equal len(x).
//
//go:noescape
func axpyAVX2(y []float64, a float64, x []float64)

// mulTilesAVX2 is the register-tiled body of mulRange and MulTA, and
// gramTileAVX2 that of ExtendGram (tiles_amd64.s); mulTiles and gramTile
// in ops.go say what they compute. Neither checks a bound: their callers
// pass slices that hold every element they touch.
//
//go:noescape
func mulTilesAVX2(out []float64, ldo int, a []float64, ars, aks int, b []float64, ldb, kdim, tiles int)

//go:noescape
func gramTileAVX2(out []float64, ldo int, xs, cs [][]float64, lo, hi int)

func cpuHasAVX2() bool

// The AVX2 bodies replace the Go loops where CPUID shows it. A variable
// initialiser naming the kernels runs after their own; an init function
// would too, but TestUnlinkedFunctions cannot match its symbol
// (linalg.init.0).
var _ = func() bool {
	if cpuHasAVX2() {
		axpy, mulTiles, gramTile = axpyAVX2, mulTilesAVX2, gramTileAVX2
	}
	return true
}()
