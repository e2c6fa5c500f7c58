package linalg

import (
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the flop count above which matrix multiplication
// fans out across goroutines.
const parallelThreshold = 1 << 18

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	checkSameShape(a, b, "Add")
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Dense) {
	checkSameShape(a, b, "AddInPlace")
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = s * v
	}
	return out
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(s float64, a *Dense) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

func checkSameShape(a, b *Dense, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: " + op + " shape mismatch")
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
	workers := min(runtime.GOMAXPROCS(0), a.Rows)
	if workers <= 1 || a.Rows*a.Cols*b.Cols < parallelThreshold {
		mulRange(out, a, b, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
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
			mulRange(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulRange computes rows [lo,hi) of out = a*b using an ikj loop order
// that streams through b row-wise (cache friendly for row-major data).
func mulRange(out, a, b *Dense, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		outRow := out.Row(i)
		aRow := a.Row(i)
		for k, aik := range aRow {
			if aik == 0 {
				continue
			}
			axpy(outRow[:n], aik, b.Data[k*n:(k+1)*n])
		}
	}
}

// axpy adds a·x to y. It is axpyGo, or on an amd64 CPU with AVX2 the
// four-lane axpyAVX2, chosen once from CPUID; both give every element
// the same multiply and add, so the sums are bit-identical.
var axpy = axpyGo

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

// MulTA returns aᵀ*b without forming the transpose.
func MulTA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("linalg: MulTA row mismatch")
	}
	out := NewDense(a.Cols, b.Cols)
	m := a.Cols
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		aRow := a.Row(k)
		bRow := b.Row(k)
		for i := 0; i < m; i++ {
			aki := aRow[i]
			if aki == 0 {
				continue
			}
			axpy(out.Data[i*n:(i+1)*n], aki, bRow)
		}
	}
	return out
}

// ExtendGram returns the Gram matrix AᵀA of the columns cols, given g,
// the Gram matrix of the leading g.Rows of them (nil for none). Only
// the new columns are read, each against every column, so a call costs
// (len(cols) − g.Rows) × len(cols) dot products over the rows, however
// many columns g already covers.
//
// Each entry is the sum MulTA forms — products in row order, skipping a
// zero in the new column — and the block above the new rows mirrors the
// one beside them, so the result is bit-identical to MulTA(A, A) of the
// whole matrix whatever columns g covers.
func ExtendGram(g *Dense, cols [][]float64) *Dense {
	old, n := 0, len(cols)
	if g != nil {
		old = g.Rows
	}
	out := NewDense(n, n)
	for i := 0; i < old; i++ {
		copy(out.Row(i), g.Row(i))
	}
	for i := old; i < n; i++ {
		ci, row := cols[i], out.Row(i)
		// Four entries at a time: four independent sums keep the adds
		// in flight, and each keeps its own row order.
		j := 0
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
	for i := old; i < n; i++ {
		for j := 0; j < old; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
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
