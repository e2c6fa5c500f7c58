package linalg

import "math"

// SVDFactors holds a thin singular value decomposition A = U diag(S) Vᵀ
// with singular values sorted in descending order. U is m×k and V is n×k
// where k = min(m, n) (or the requested truncation rank).
type SVDFactors struct {
	U *Dense
	S []float64
	V *Dense
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
