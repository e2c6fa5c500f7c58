package linalg

import (
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the flop count above which matrix multiplication
// fans out across goroutines.
const parallelThreshold = 1 << 18

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(s float64, a *Dense) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// Mul returns a*b, parallelizing across row blocks for large problems.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("linalg: Mul inner dimension mismatch")
	}
	out := NewDense(a.Rows, b.Cols)
	mulInto(out, a, b)
	return out
}

func mulInto(out, a, b *Dense) {
	tiled := tilesFit(b)
	workers := min(runtime.GOMAXPROCS(0), a.Rows)
	if workers <= 1 || a.Rows*a.Cols*b.Cols < parallelThreshold {
		mulRows(out, a, b, 0, a.Rows, tiled)
		return
	}
	var wg sync.WaitGroup
	// Blocks of a multiple of four rows keep every row in a tile but
	// the product's last few.
	chunk := ((a.Rows+workers-1)/workers + 3) &^ 3
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(out, a, b, lo, hi, tiled)
		}(lo, hi)
	}
	wg.Wait()
}

// tilesFit reports whether the tile kernel may compute a product whose
// right operand is b: it exists on this CPU, b is at least one tile
// wide, and every element of b is finite. The Go loops skip a zero
// multiplier; the kernel multiplies it, and with a finite b the product
// is ±0, which adds nothing to a sum that started at +0 — such a sum is
// never −0, and x + ±0 = x for every other x, NaN payloads included. So
// the two agree to the bit, and a b with an Inf or a NaN goes through
// the Go loops, where 0·Inf would be NaN.
func tilesFit(b *Dense) bool {
	return mulTiles != nil && b.Cols >= 8 && b.IsFinite()
}

// mulRows computes rows [lo,hi) of out = a*b, which start at zero:
// four rows at a time through the tile kernel when tiled, their columns
// beyond the last whole tile and the rows after the last four through
// mulRange.
func mulRows(out, a, b *Dense, lo, hi int, tiled bool) {
	if tiled {
		kd, n := a.Cols, b.Cols
		w := n &^ 7
		for ; lo+4 <= hi; lo += 4 {
			mulTiles(out.Data[lo*n:(lo+4)*n], n, a.Data[lo*kd:(lo+4)*kd], kd, 1, b.Data[:kd*n], n, kd, w/8)
			if w < n {
				mulCols(out, a, b, lo, lo+4, w)
			}
		}
	}
	mulRange(out, a, b, lo, hi)
}

// mulRange computes rows [lo,hi) of out = a*b using an ikj loop order
// that streams through b row-wise (cache friendly for row-major data).
// It is the Go loop: the tile kernel's oracle and, on a CPU without
// one, the body of every row.
func mulRange(out, a, b *Dense, lo, hi int) { mulCols(out, a, b, lo, hi, 0) }

// mulCols is mulRange on the columns [j0, b.Cols) of out only.
func mulCols(out, a, b *Dense, lo, hi, j0 int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		outRow := out.Row(i)[j0:]
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			axpy(outRow, aik, b.Data[k*n+j0:(k+1)*n])
		}
	}
}

// axpy adds a·x to y. It is axpyGo, or on an amd64 CPU with AVX2 the
// four-lane axpyAVX2, chosen once from CPUID; both give every element
// the same multiply and add, so the sums are bit-identical.
var axpy = axpyGo

// mulTiles, where the CPU has a tile kernel (on amd64 with AVX2,
// chosen once from CPUID like axpy; nil elsewhere), adds to out the
// 4×8 tiles
//
//	out[r·ldo + 8t + c] += Σ_k b[k·ldb + 8t + c] · a[r·ars + k·aks]
//
// for r < 4, c < 8, t < tiles, over k < kdim in ascending order. It
// keeps each tile's 32 sums in registers across k and gives every
// element the multiply and add axpy gives it, in the same order, but it
// skips no zero multiplier: its callers run it only where tilesFit.
// a's strides make one kernel serve Mul (ars = a.Cols, aks = 1) and
// MulTA (ars = 1, aks = a.Cols).
var mulTiles func(out []float64, ldo int, a []float64, ars, aks int, b []float64, ldb, kdim, tiles int)

// gramTile, where the CPU has a tile kernel (as mulTiles), adds to out
// the 4×4 block
//
//	out[q·ldo + l] += Σ_k cs[l][k] · xs[q][k]
//
// for q, l < 4 over the rows k in [lo, hi), ascending, skipping a zero
// xs[q][k]: ExtendGram's entries for four new columns xs against four
// columns cs, each with the multiply and add of the Go loop's
// four-entry body, in its operand order.
var gramTile func(out []float64, ldo int, xs, cs [][]float64, lo, hi int)

// axpyGo adds a·x to y, four elements an iteration and then one. Each
// element sees the one multiply-add a plain loop gives it, so the sums
// are bit-identical to that loop's. The plain loop's speed depended on
// where the linker put it: on an Intel Xeon at one thread, a 15 360×128
// by 128×128 product took 1.4 times as long when mulRange started 32
// bytes past a 64-byte boundary as when it started on one, and code
// added anywhere before it moves it. The four-wide loop reads the same
// either way.
func axpyGo(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		yy, xx := y[j:j+4:j+4], x[j:j+4:j+4]
		yy[0] += a * xx[0]
		yy[1] += a * xx[1]
		yy[2] += a * xx[2]
		yy[3] += a * xx[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// taRows is the number of rows of a and b MulTA's tile kernel sums
// over at a time: the kernel's slices of b and of its four columns of a
// then stay in cache while it runs over all of out.
const taRows = 256

// MulTA returns aᵀ*b without forming the transpose.
func MulTA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("linalg: MulTA row mismatch")
	}
	out := NewDense(a.Cols, b.Cols)
	m, n := a.Cols, b.Cols
	if m < 4 || !tilesFit(b) {
		mulTARange(out, a, b, 0, m, 0)
		return out
	}
	mt, w := m&^3, n&^7
	for k0 := 0; k0 < a.Rows; k0 += taRows {
		kc := min(taRows, a.Rows-k0)
		for i := 0; i < mt; i += 4 {
			mulTiles(out.Data[i*n:(i+4)*n], n, a.Data[k0*m+i:(k0+kc-1)*m+i+4], 1, m, b.Data[k0*n:(k0+kc)*n], n, kc, w/8)
		}
	}
	if w < n {
		mulTARange(out, a, b, 0, mt, w)
	}
	mulTARange(out, a, b, mt, m, 0)
	return out
}

// mulTARange is MulTA's Go loop on the rows [lo, hi) and the columns
// [j0, b.Cols) of out.
func mulTARange(out, a, b *Dense, lo, hi, j0 int) {
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		aRow := a.Row(k)
		bRow := b.Row(k)[j0:]
		for i := lo; i < hi; i++ {
			aki := aRow[i]
			if aki == 0 {
				continue
			}
			axpy(out.Data[i*n+j0:(i+1)*n], aki, bRow)
		}
	}
}

// gramRows is the number of rows ExtendGram's tile kernel sums over at
// a time: four new columns' slices then stay in cache while it runs
// over every column, and all the columns' slices while it runs over the
// new ones.
const gramRows = 512

// ExtendGram returns the Gram matrix AᵀA of the columns cols, given g,
// the Gram matrix of the leading g.Rows of them (nil for none). Only
// the new columns are read, each against every column, so a call costs
// (len(cols) − g.Rows) × len(cols) dot products over the rows, however
// many columns g already covers.
//
// Each entry is the sum MulTA forms — products in row order, skipping a
// zero in the new column — and the block above the new rows mirrors the
// one beside them, so for finite columns the result is bit-identical to
// MulTA(A, A) of the whole matrix whatever columns g covers. (With an
// Inf or a NaN it need not be: the mirrored block skips the new column's
// zeros where MulTA skips the other's, and of two NaN operands the two
// keep different ones.) Four new columns at a time go through the tile
// kernel, against four columns at a time.
func ExtendGram(g *Dense, cols [][]float64) *Dense {
	old, n := 0, len(cols)
	if g != nil {
		old = g.Rows
	}
	out := NewDense(n, n)
	for i := 0; i < old; i++ {
		copy(out.Row(i), g.Row(i))
	}
	i := old
	if gramTile != nil && old+4 <= n && sameLen(cols) {
		rows, w := len(cols[0]), n&^3
		tiled := old + (n-old)&^3
		for lo := 0; lo < rows; lo += gramRows {
			hi := min(lo+gramRows, rows)
			for q := old; q < tiled; q += 4 {
				for j := 0; j < w; j += 4 {
					gramTile(out.Data[q*n+j:(q+3)*n+j+4], n, cols[q:q+4], cols[j:j+4], lo, hi)
				}
			}
		}
		for ; i < tiled; i++ {
			gramRow(out.Row(i), cols, cols[i], w)
		}
	}
	for ; i < n; i++ {
		gramRow(out.Row(i), cols, cols[i], 0)
	}
	for i := old; i < n; i++ {
		for j := 0; j < old; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}

// gramRow sets row[j] to the sum over the rows of cols[j][k]·ci[k], in
// row order, skipping a zero ci[k], for the columns from j0 (a multiple
// of four) on: the Go loop, and the tile kernel's oracle.
func gramRow(row []float64, cols [][]float64, ci []float64, j0 int) {
	n := len(cols)
	// Four entries at a time: four independent sums keep the adds
	// in flight, and each keeps its own row order.
	j := j0
	for ; j+4 <= n; j += 4 {
		c0, c1 := cols[j][:len(ci)], cols[j+1][:len(ci)]
		c2, c3 := cols[j+2][:len(ci)], cols[j+3][:len(ci)]
		var s0, s1, s2, s3 float64
		for k, x := range ci {
			if x == 0 {
				continue
			}
			s0 += x * c0[k]
			s1 += x * c1[k]
			s2 += x * c2[k]
			s3 += x * c3[k]
		}
		row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		cj := cols[j][:len(ci)]
		s := 0.0
		for k, x := range ci {
			if x != 0 {
				s += x * cj[k]
			}
		}
		row[j] = s
	}
}

// sameLen reports whether every column has as many rows as the first.
func sameLen(cols [][]float64) bool {
	for _, c := range cols {
		if len(c) != len(cols[0]) {
			return false
		}
	}
	return true
}

// MulBT returns a*bᵀ without forming the transpose.
func MulBT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("linalg: MulBT column mismatch")
	}
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		aRow := a.Row(i)
		outRow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			outRow[j] = Dot(aRow, b.Row(j))
		}
	}
	return out
}

// MatVec returns a*x.
func MatVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("linalg: MatVec dimension mismatch")
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

// MatTVec returns aᵀ*x.
func MatTVec(a *Dense, x []float64) []float64 {
	if a.Rows != len(x) {
		panic("linalg: MatTVec dimension mismatch")
	}
	y := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// VecSub returns x - y as a new slice.
func VecSub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: VecSub length mismatch")
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}

// VecAdd returns x + y as a new slice.
func VecAdd(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: VecAdd length mismatch")
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v + y[i]
	}
	return out
}

// OuterAdd accumulates alpha * x yᵀ into m.
func OuterAdd(m *Dense, alpha float64, x, y []float64) {
	if m.Rows != len(x) || m.Cols != len(y) {
		panic("linalg: OuterAdd dimension mismatch")
	}
	for i, xi := range x {
		c := alpha * xi
		if c == 0 {
			continue
		}
		row := m.Row(i)
		for j, yj := range y {
			row[j] += c * yj
		}
	}
}
