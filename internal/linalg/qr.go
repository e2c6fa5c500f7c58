package linalg

import "math"

// QRFactors holds a thin QR factorization A = Q*R with Q (m×n,
// orthonormal columns) and R (n×n, upper triangular), for m >= n.
type QRFactors struct {
	Q *Dense
	R *Dense
}

// QR computes a thin Householder QR factorization of a (m >= n required).
func QR(a *Dense) *QRFactors {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("linalg: QR requires Rows >= Cols")
	}
	r := a.Clone()
	// Householder vectors stored per step, carved from one backing
	// array (vector k has length m-k, so the total is n*m - n(n-1)/2).
	vs := make([][]float64, n)
	vbuf := make([]float64, n*m-n*(n-1)/2)
	off := 0
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k below the diagonal.
		v := vbuf[off : off+m-k]
		off += m - k
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		alpha := Norm2(v)
		if v[0] > 0 {
			alpha = -alpha
		}
		if alpha == 0 {
			vs[k] = nil
			continue
		}
		v[0] -= alpha
		vnorm := Norm2(v)
		if vnorm == 0 {
			vs[k] = nil
			continue
		}
		for i := range v {
			v[i] /= vnorm
		}
		vs[k] = v
		// Apply the reflector to the trailing submatrix of R.
		for j := k; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			dot *= 2
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-dot*v[i-k])
			}
		}
	}
	// Accumulate thin Q by applying reflectors to the first n columns of I.
	q := NewDense(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		v := vs[k]
		if v == nil {
			continue
		}
		for j := 0; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i-k] * q.At(i, j)
			}
			dot *= 2
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)-dot*v[i-k])
			}
		}
	}
	// Extract the upper-triangular n×n R, zeroing round-off below diagonal.
	rOut := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rOut.Set(i, j, r.At(i, j))
		}
	}
	return &QRFactors{Q: q, R: rOut}
}

// solveLowerTriInto solves L x = b for lower-triangular L into a
// caller-supplied x (len n, not aliasing b); it allocates nothing.
func solveLowerTriInto(x []float64, l *Dense, b []float64) []float64 {
	n := l.Rows
	if l.Cols != n || len(b) != n || len(x) != n {
		panic("linalg: SolveLowerTri dimension mismatch")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			panic("linalg: SolveLowerTri singular matrix")
		}
		x[i] = s / d
	}
	return x
}

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix. ok is false if A is not (numerically)
// positive definite.
func Cholesky(a *Dense) (l *Dense, ok bool) {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: Cholesky requires a square matrix")
	}
	l = NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lRowJ := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lRowJ[k] * lRowJ[k]
		}
		if d <= 0 {
			return nil, false
		}
		diag := math.Sqrt(d)
		lRowJ[j] = diag
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lRowI := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lRowI[k] * lRowJ[k]
			}
			lRowI[j] = s / diag
		}
	}
	return l, true
}

// solveCholeskyTInto solves Lᵀ x = y without forming the transpose,
// into a caller-supplied x (len n, not aliasing y); it allocates
// nothing. l must be a factor returned by a successful Cholesky call.
func solveCholeskyTInto(x []float64, l *Dense, y []float64) []float64 {
	n := l.Rows
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// InvertSPD returns the inverse of a symmetric positive-definite matrix.
func InvertSPD(a *Dense) (*Dense, bool) {
	n := a.Rows
	inv := NewDense(n, n)
	l, ok := Cholesky(a)
	if !ok {
		return nil, false
	}
	e := make([]float64, n)
	y := make([]float64, n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		solveLowerTriInto(y, l, e)
		inv.SetCol(j, solveCholeskyTInto(x, l, y))
	}
	return inv, true
}
