package linalg

import (
	"math"
	"sort"
)

// jacobiSymEig is the cyclic Jacobi eigensolver SymEig used to be, kept
// verbatim as the oracle the Householder + implicit-QL solver is checked
// against. Only the name changed.
func jacobiSymEig(a *Dense) *EigSym {
	n := a.Rows
	if a.Cols != n {
		panic("linalg: SymEig requires a square matrix")
	}
	// Work on a symmetrized copy.
	w := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	v := Identity(n)

	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.FrobNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Stable computation of the rotation (Golub & Van Loan).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(w, v, p, q, c, s)
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewDense(n, n)
	col := make([]float64, n)
	for out, in := range idx {
		sortedVals[out] = vals[in]
		v.Col(col, in)
		sortedVecs.SetCol(out, col)
	}
	return &EigSym{Values: sortedVals, Vectors: sortedVecs}
}

// applyJacobiRotation applies the two-sided rotation J(p,q,c,s) to w
// (w = JᵀwJ) and accumulates it into the eigenvector matrix v (v = vJ).
func applyJacobiRotation(w, v *Dense, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagNorm(w *Dense) float64 {
	n := w.Rows
	s := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}
