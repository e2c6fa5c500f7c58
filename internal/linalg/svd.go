package linalg

import (
	"math"
	"sort"
)

// SVDFactors holds a thin singular value decomposition A = U diag(S) Vᵀ
// with singular values sorted in descending order. U is m×k and V is n×k
// where k = min(m, n) (or the requested truncation rank).
type SVDFactors struct {
	U *Dense
	S []float64
	V *Dense
}

// SVD computes a thin SVD of a, dispatching on shape: for tall matrices
// (Rows >= Cols) it runs one-sided Jacobi directly; for wide matrices it
// factors the transpose and swaps U and V.
//
// ESSE anomaly matrices are extremely tall (state dimension ≫ ensemble
// size), which is the cheap case: the Jacobi sweeps operate on the n
// columns only.
func SVD(a *Dense) *SVDFactors {
	if a.Rows >= a.Cols {
		return oneSidedJacobi(a)
	}
	f := oneSidedJacobi(a.T())
	return &SVDFactors{U: f.V, S: f.S, V: f.U}
}

// oneSidedJacobi computes the thin SVD of a tall matrix (m >= n) by
// orthogonalizing its columns with Jacobi plane rotations. V accumulates
// the rotations; on convergence the column norms are the singular values
// and the normalized columns form U.
func oneSidedJacobi(a *Dense) *SVDFactors {
	m, n := a.Rows, a.Cols
	u := a.Clone()
	v := Identity(n)

	const maxSweeps = 60
	tol := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram entries for columns p and q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					up := u.Data[i*n+p]
					uq := u.Data[i*n+q]
					alpha += up * up
					beta += uq * uq
					gamma += up * uq
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				rotated = true
				// Rotation that annihilates the off-diagonal Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					up := u.Data[i*n+p]
					uq := u.Data[i*n+q]
					u.Data[i*n+p] = c*up - s*uq
					u.Data[i*n+q] = s*up + c*uq
				}
				for i := 0; i < n; i++ {
					vp := v.Data[i*n+p]
					vq := v.Data[i*n+q]
					v.Data[i*n+p] = c*vp - s*vq
					v.Data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Extract singular values (column norms) and normalize U.
	sv := make([]float64, n)
	col := make([]float64, m)
	for j := 0; j < n; j++ {
		u.Col(col, j)
		sv[j] = Norm2(col)
		if sv[j] > 0 {
			inv := 1 / sv[j]
			for i := 0; i < m; i++ {
				u.Data[i*n+j] *= inv
			}
		}
	}
	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return sv[idx[i]] > sv[idx[j]] })
	sortedS := make([]float64, n)
	sortedU := NewDense(m, n)
	sortedV := NewDense(n, n)
	ucol := make([]float64, m)
	vcol := make([]float64, n)
	for out, in := range idx {
		sortedS[out] = sv[in]
		u.Col(ucol, in)
		sortedU.SetCol(out, ucol)
		v.Col(vcol, in)
		sortedV.SetCol(out, vcol)
	}
	return &SVDFactors{U: sortedU, S: sortedS, V: sortedV}
}

// ThinSVDGram computes the dominant k singular triplets of a tall matrix
// via the eigendecomposition of the small Gram matrix AᵀA (n×n). This is
// the method of choice for ESSE anomaly matrices where m (state size) is
// orders of magnitude larger than n (ensemble size): cost is O(m n² + n³)
// with only one pass over the tall matrix.
//
// Singular values below ~sqrt(eps)*s_max lose relative accuracy compared
// to Jacobi; ESSE only consumes the dominant, well-separated part of the
// spectrum, where the Gram approach is accurate.
//
// It is GramSVD followed by LeftVectors; a caller that keeps AᵀA across
// calls (core.SubspaceTracker) uses the two halves directly.
func ThinSVDGram(a *Dense, k int) *SVDFactors {
	s, v := GramSVD(MulTA(a, a), k)
	return &SVDFactors{U: LeftVectors(a, v, s), S: s, V: v}
}

// GramSVD returns the dominant k singular values and right singular
// vectors (n×k) of a matrix A given only its Gram matrix AᵀA (n×n):
// the part of ThinSVDGram that never touches the tall data. k <= 0 or
// k > n means n.
//
// An eigenvalue at or below n·ε·λmax (ε = 2⁻⁵²) is rounding, not
// spectrum, and gives σ = 0: a null direction of A — every direction a
// mean-centred ensemble lacks — comes out of the eigensolver a few ulps
// of λmax away from zero, which is far above zero in σ.
func GramSVD(gram *Dense, k int) ([]float64, *Dense) {
	n := gram.Rows
	if k <= 0 || k > n {
		k = n
	}
	eig := SymEig(gram)
	floor := 0.0
	if n > 0 {
		floor = float64(n) * 0x1p-52 * eig.Values[0]
	}
	s := make([]float64, 0, k)
	v := NewDense(n, k)
	col := make([]float64, n)
	for i := 0; i < k; i++ {
		lambda := eig.Values[i]
		if lambda <= floor {
			lambda = 0
		}
		s = append(s, math.Sqrt(lambda))
		// Write each eigenvector straight into V through one reused
		// column buffer.
		eig.Vectors.Col(col, i)
		v.SetCol(i, col)
	}
	return s, v
}

// InvSingular returns 1/s[j] for the non-negligible singular values of
// a descending spectrum and 0 for the degenerate ones — those at or
// below 1e-13·(1 + s[0]) — so a degenerate direction becomes a zero
// left vector wherever the inverse is applied.
func InvSingular(s []float64) []float64 {
	inv := make([]float64, len(s))
	if len(s) == 0 {
		return inv
	}
	// Abs guards the floor itself: a slightly negative leading value from
	// the Gram eigensolve must not drag the threshold below 1e-13.
	floor := 1e-13 * (1 + math.Abs(s[0]))
	for j, sj := range s {
		if sj > floor {
			inv[j] = 1 / sj
		}
	}
	return inv
}

// LeftVectors returns U = A V Σ⁻¹ (m×k), the left singular vectors that
// go with right vectors v and singular values s: the one pass over the
// tall matrix. A degenerate direction (InvSingular) is left as a zero
// column; callers truncate at the numerical rank anyway.
func LeftVectors(a, v *Dense, s []float64) *Dense {
	u := Mul(a, v)
	inv := InvSingular(s)
	for i := 0; i < u.Rows; i++ {
		row := u.Row(i)
		for j, f := range inv {
			if f == 0 {
				row[j] = 0
			} else {
				row[j] *= f
			}
		}
	}
	return u
}

// Reconstruct returns U diag(S) Vᵀ (mainly for testing).
func (f *SVDFactors) Reconstruct() *Dense {
	k := len(f.S)
	us := NewDense(f.U.Rows, k)
	for i := 0; i < f.U.Rows; i++ {
		for j := 0; j < k; j++ {
			us.Set(i, j, f.U.At(i, j)*f.S[j])
		}
	}
	return MulBT(us, f.V)
}
