package core

import (
	"errors"
	"fmt"
	"math"

	"esse/internal/linalg"
)

// SubspaceTracker is the continuously running SVD + convergence stage
// of the paper's Fig. 4 kept as a small sufficient statistic. Anomalies
// are (member − central), not mean-centred, so the n×n Gram matrix AᵀA
// of the members seen so far says everything the SVD needs, and adding
// members never changes its old entries. Each round therefore only
// extends the Gram matrix by the new members' rows and columns — one
// pass over the new columns of the tall matrix, not over all of it —
// eigendecomposes it, and keeps the subspace in coefficient form: right
// vectors V and singular values S with E = A V S⁻¹ implied. The
// similarity ρ of successive rounds is computed from those coefficients
// and the Gram matrix alone, and the state-dimension modes are formed
// once, by Subspace, for the round whose result is wanted.
//
// The extended Gram matrix is bit-identical to linalg.MulTA(A, A) of the
// whole matrix (each entry is the same sum over rows in the same order,
// whatever other columns are present), so Subspace returns exactly what
// SubspaceFromAnomalies returns for the same columns; that function is
// the one-round use of this type.
type SubspaceTracker struct {
	maxRank int
	relTol  float64

	gram    *linalg.Dense // AᵀA of the members folded in so far
	indices []int         // their member indices, in column order

	prev, cur *coeffSubspace
}

// coeffSubspace is one round's subspace in coefficient form: over the
// first n anomaly columns, modes E = A[:, :n] V S⁻¹.
type coeffSubspace struct {
	n     int
	v     *linalg.Dense // n × rank right singular vectors
	s     []float64     // singular values of A[:, :n], descending
	sigma []float64     // s / sqrt(n−1): the mode standard deviations
}

// NewSubspaceTracker returns a tracker applying SubspaceFromAnomalies'
// truncation rules: maxRank caps the subspace size (0 keeps every
// non-degenerate mode) and modes with σ at or below relTol·σmax are
// dropped.
func NewSubspaceTracker(maxRank int, relTol float64) *SubspaceTracker {
	return &SubspaceTracker{maxRank: maxRank, relTol: relTol}
}

// Len returns the number of members folded into the Gram matrix.
func (t *SubspaceTracker) Len() int {
	if t.gram == nil {
		return 0
	}
	return t.gram.Rows
}

// Update runs one SVD round on the anomaly columns cols, which belong
// to the members named by indices. The columns must be the ones the
// previous round saw with at least one more appended: only the new ones
// are read, and the old Gram entries are reused, so columns that are
// stale, reordered or fewer would corrupt this round and every later
// one. Update returns an error instead and leaves the tracker as it was.
// The columns are only read, during the call.
func (t *SubspaceTracker) Update(cols [][]float64, indices []int) error {
	if len(indices) != len(cols) {
		return fmt.Errorf("core: %d member indices for %d anomaly columns", len(indices), len(cols))
	}
	if len(cols) < 2 {
		return errors.New("core: need at least 2 anomaly columns")
	}
	old := t.Len()
	if len(cols) <= old {
		return fmt.Errorf("core: snapshot has %d members, the last round had %d; it must grow", len(cols), old)
	}
	for j, idx := range t.indices {
		if indices[j] != idx {
			return fmt.Errorf("core: snapshot column %d is member %d, the last round had member %d there", j, indices[j], idx)
		}
	}
	for j, c := range cols[old:] {
		if len(c) != len(cols[0]) {
			return fmt.Errorf("core: anomaly column %d has %d rows, column 0 has %d", old+j, len(c), len(cols[0]))
		}
	}
	t.fold(cols)
	t.indices = append(t.indices, indices[old:]...)
	return nil
}

// fold extends the Gram matrix by the columns beyond the ones it already
// covers and decomposes it into the current round's subspace.
func (t *SubspaceTracker) fold(cols [][]float64) {
	n := len(cols)
	t.gram = linalg.ExtendGram(t.gram, cols)

	s, v := linalg.GramSVD(t.gram, t.maxRank)
	scale := 1 / math.Sqrt(float64(n-1))
	sigma := make([]float64, len(s))
	for j, sj := range s {
		sigma[j] = sj * scale
	}
	// Drop the degenerate tail (the "comparison of the singular values"
	// of the paper).
	keep := len(sigma)
	if t.relTol > 0 {
		thresh := t.relTol * sigma[0]
		keep = 0
		for _, sj := range sigma {
			if sj > thresh {
				keep++
			}
		}
		if keep == 0 {
			keep = 1
		}
	}
	if keep < len(s) {
		v = v.Slice(0, n, 0, keep)
	}
	t.prev, t.cur = t.cur, &coeffSubspace{n: n, v: v, s: s[:keep], sigma: sigma[:keep]}
}

// Converged applies the criterion to the last two rounds, as
// c.Converged(prev, cur) would on their explicit modes, together with
// the measured similarity ρ. Before the second round it reports
// (false, 0).
func (t *SubspaceTracker) Converged(c ConvergenceCriterion) (bool, float64) {
	if t.prev == nil {
		return false, 0
	}
	rho := t.similarity()
	return c.met(rho, totalVariance(t.prev.sigma), totalVariance(t.cur.sigma)), rho
}

// similarity is SimilarityCoefficient(prev, cur) without the modes:
// E_pᵀ E_c = S_p⁻¹ V_pᵀ (A_pᵀ A_c) V_c S_c⁻¹, and A_pᵀ A_c is the top
// n_p rows of the current Gram matrix. A degenerate mode has inverse 0
// (linalg.InvSingular) and contributes nothing, exactly like the zero
// column it would be in explicit form.
func (t *SubspaceTracker) similarity() float64 {
	p, c := t.prev, t.cur
	tot := totalVariance(c.sigma)
	if tot == 0 {
		return 1
	}
	cross := t.gram.Slice(0, p.n, 0, c.n)
	proj := linalg.MulTA(p.v, linalg.Mul(cross, c.v)) // rank_p × rank_c
	invP, invC := linalg.InvSingular(p.s), linalg.InvSingular(c.s)
	num := 0.0
	for j := 0; j < proj.Cols; j++ {
		col := 0.0
		for i := 0; i < proj.Rows; i++ {
			e := invP[i] * proj.At(i, j) * invC[j]
			col += e * e
		}
		num += col * c.sigma[j] * c.sigma[j]
	}
	return num / tot
}

// Subspace forms the current round's modes E = A V S⁻¹ — the one
// product over the state dimension — from the anomaly matrix that
// round saw. A matrix with another number of columns is an error.
func (t *SubspaceTracker) Subspace(a *linalg.Dense) (*Subspace, error) {
	if t.cur == nil {
		return nil, errors.New("core: no SVD round has run")
	}
	if a.Cols != t.cur.n {
		return nil, fmt.Errorf("core: %d anomaly columns, the last SVD round saw %d", a.Cols, t.cur.n)
	}
	return t.cur.modes(a), nil
}

func (c *coeffSubspace) modes(a *linalg.Dense) *Subspace {
	sigma := make([]float64, len(c.sigma))
	copy(sigma, c.sigma)
	return &Subspace{Modes: linalg.LeftVectors(a, c.v, c.s), Sigma: sigma}
}
