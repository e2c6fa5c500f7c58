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
	flops := a.Rows * a.Cols * b.Cols
	if flops < parallelThreshold {
		mulRange(out, a, b, 0, a.Rows)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
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
			bRow := b.Data[k*n : (k+1)*n]
			for j, bkj := range bRow {
				outRow[j] += aik * bkj
			}
		}
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
			outRow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				outRow[j] += aki * bRow[j]
			}
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
