// Package core implements Error Subspace Statistical Estimation (ESSE),
// the paper's primary contribution: characterization and prediction of
// the dominant forecast uncertainties via a variable-size error subspace,
// estimated from an ensemble of stochastic ocean model runs, and used for
// minimum-error-variance data assimilation.
//
// The pipeline mirrors Fig. 2 of the paper:
//
//  1. perturb the mean initial state with randomly weighted combinations
//     of the dominant error modes (plus truncation white noise),
//  2. integrate the stochastic model for each ensemble member,
//  3. form the normalized difference (anomaly) matrix against the
//     central forecast,
//  4. take the SVD of the anomaly matrix to obtain the new error
//     subspace,
//  5. test convergence of the subspace as the ensemble grows, and
//  6. assimilate observations in the converged subspace.
//
// This package holds the numerical algorithm; the many-task orchestration
// that distributes step 2 lives in internal/workflow.
package core

import (
	"fmt"
	"math"

	"esse/internal/linalg"
	"esse/internal/rng"
)

// Subspace is a dominant error subspace: the decomposition
// P ≈ E diag(σ²) Eᵀ of the forecast error covariance, with E the
// orthonormal error modes (stateDim × rank) and σ the mode standard
// deviations sorted in descending order.
type Subspace struct {
	Modes *linalg.Dense
	Sigma []float64
}

// Rank returns the subspace dimension.
func (s *Subspace) Rank() int { return len(s.Sigma) }

// StateDim returns the state dimension.
func (s *Subspace) StateDim() int { return s.Modes.Rows }

// TotalVariance returns Σ σᵢ² — the trace of the low-rank covariance.
func (s *Subspace) TotalVariance() float64 { return totalVariance(s.Sigma) }

func totalVariance(sigma []float64) float64 {
	t := 0.0
	for _, v := range sigma {
		t += v * v
	}
	return t
}

// Truncate returns a subspace keeping only the leading k modes.
func (s *Subspace) Truncate(k int) *Subspace {
	if k >= s.Rank() {
		return s
	}
	sig := make([]float64, k)
	copy(sig, s.Sigma[:k])
	return &Subspace{Modes: s.Modes.Slice(0, s.Modes.Rows, 0, k), Sigma: sig}
}

// VariancePointwise returns the diagonal of E diag(σ²) Eᵀ — the
// marginal error variance of every state element. This is the field
// plotted in the paper's Figs. 5 and 6 (as standard deviations).
func (s *Subspace) VariancePointwise() []float64 {
	out := make([]float64, s.Modes.Rows)
	for i := 0; i < s.Modes.Rows; i++ {
		row := s.Modes.Row(i)
		v := 0.0
		for j, e := range row {
			v += e * e * s.Sigma[j] * s.Sigma[j]
		}
		out[i] = v
	}
	return out
}

// Clone deep-copies the subspace.
func (s *Subspace) Clone() *Subspace {
	sig := make([]float64, len(s.Sigma))
	copy(sig, s.Sigma)
	return &Subspace{Modes: s.Modes.Clone(), Sigma: sig}
}

// Check validates the structural invariants (orthonormal modes within
// tol, non-negative descending sigma), returning a descriptive error.
func (s *Subspace) Check(tol float64) error {
	if s.Modes.Cols != len(s.Sigma) {
		return fmt.Errorf("core: %d modes but %d sigmas", s.Modes.Cols, len(s.Sigma))
	}
	for i, v := range s.Sigma {
		if v < 0 {
			return fmt.Errorf("core: negative sigma[%d] = %v", i, v)
		}
		if i > 0 && v > s.Sigma[i-1]+tol {
			return fmt.Errorf("core: sigma not descending at %d: %v > %v", i, v, s.Sigma[i-1])
		}
	}
	gram := linalg.MulTA(s.Modes, s.Modes)
	if !gram.EqualApprox(linalg.Identity(s.Rank()), tol) {
		return fmt.Errorf("core: modes not orthonormal within %v", tol)
	}
	return nil
}

// SubspaceFromAnomalies builds the error subspace from an anomaly matrix
// A whose columns are (member − central forecast) state differences. The
// covariance estimate is A Aᵀ / (n−1); its dominant structure is obtained
// from the thin Gram SVD of A (cheap because A is extremely tall), and
// the returned σ are the anomaly singular values scaled by 1/sqrt(n−1)
// so that P ≈ E diag(σ²) Eᵀ.
//
// maxRank limits the subspace size; pass 0 to keep every non-degenerate
// mode. Modes with σ below relTol·σmax are dropped (the "comparison of
// the singular values" of the paper).
func SubspaceFromAnomalies(a *linalg.Dense, maxRank int, relTol float64) *Subspace {
	if a.Cols < 2 {
		panic("core: need at least 2 anomaly columns")
	}
	// One round of the tracker, materialised at once: the truncation
	// rules live there.
	t := NewSubspaceTracker(maxRank, relTol)
	t.fold(a.Columns())
	return t.cur.modes(a)
}

// SubspaceFromSnapshots builds an error subspace from model snapshots
// (columns) and returns it with the snapshot mean it is centred on: the
// "error nowcast" that seeds a real-time experiment with no previous
// cycle, and the coupled ocean–acoustic ensemble's statistics.
func SubspaceFromSnapshots(snaps *linalg.Dense, maxRank int) (*Subspace, []float64) {
	m, n := snaps.Rows, snaps.Cols
	if n < 2 {
		panic("core: need at least 2 snapshots")
	}
	mean := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			mean[i] += snaps.At(i, j)
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	anom := linalg.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			anom.Set(i, j, snaps.At(i, j)-mean[i])
		}
	}
	return SubspaceFromAnomalies(anom, maxRank, 1e-10), mean
}

// Perturb draws one random perturbation of the mean state:
//
//	δx = E diag(σ) u + εw,   u ~ N(0, I_p),  w ~ N(0, I_M)
//
// The white-noise term (amplitude whiteAmp) represents the errors
// truncated by the subspace, exactly as in the paper's Section 6. The
// result is written into dst (allocated if nil).
func (s *Subspace) Perturb(dst []float64, stream *rng.Stream, whiteAmp float64) []float64 {
	m := s.StateDim()
	if dst == nil {
		dst = make([]float64, m)
	}
	dst = dst[:m]
	for i := range dst {
		dst[i] = 0
	}
	p := s.Rank()
	u := make([]float64, p)
	for j := 0; j < p; j++ {
		u[j] = s.Sigma[j] * stream.Norm()
	}
	// dst = E u (E is tall: iterate rows).
	for i := 0; i < m; i++ {
		row := s.Modes.Row(i)
		acc := 0.0
		for j, uj := range u {
			acc += row[j] * uj
		}
		dst[i] = acc
	}
	if whiteAmp > 0 {
		for i := range dst {
			dst[i] += whiteAmp * stream.Norm()
		}
	}
	return dst
}

// SimilarityCoefficient measures how much of the variance captured by
// subspace b already lies inside subspace a:
//
//	ρ = Σ_j σ²_b,j ‖Eaᵀ e_b,j‖² / Σ_j σ²_b,j  ∈ [0, 1]
//
// ρ → 1 as the subspaces converge. This is the variance-weighted
// projection criterion ESSE uses to compare error subspaces of different
// sizes (the "convergence criterion" box of Fig. 2).
func SimilarityCoefficient(a, b *Subspace) float64 {
	if a.StateDim() != b.StateDim() {
		panic("core: similarity of subspaces with different state dims")
	}
	tot := b.TotalVariance()
	if tot == 0 {
		return 1
	}
	// proj = Eaᵀ Eb  (pa × pb)
	proj := linalg.MulTA(a.Modes, b.Modes)
	num := 0.0
	for j := 0; j < proj.Cols; j++ {
		col := 0.0
		for i := 0; i < proj.Rows; i++ {
			v := proj.At(i, j)
			col += v * v
		}
		num += col * b.Sigma[j] * b.Sigma[j]
	}
	return num / tot
}

// ConvergenceCriterion bundles the thresholds of the ESSE convergence
// test between successive subspaces.
type ConvergenceCriterion struct {
	// MinSimilarity is the minimum variance-weighted subspace projection
	// (ρ) for convergence; the paper's experiments use values ~0.97.
	MinSimilarity float64
	// MaxVarianceChange is the maximum relative change in total variance.
	MaxVarianceChange float64
}

// DefaultConvergence returns the thresholds used by the reproduction.
func DefaultConvergence() ConvergenceCriterion {
	return ConvergenceCriterion{MinSimilarity: 0.97, MaxVarianceChange: 0.05}
}

// Converged reports whether the subspace estimate has converged from
// prev to cur, together with the measured similarity ρ.
func (c ConvergenceCriterion) Converged(prev, cur *Subspace) (bool, float64) {
	if prev == nil || cur == nil {
		return false, 0
	}
	rho := SimilarityCoefficient(prev, cur)
	return c.met(rho, prev.TotalVariance(), cur.TotalVariance()), rho
}

// met is the decision itself, on the similarity ρ and the total
// variances of the previous and current subspace.
func (c ConvergenceCriterion) met(rho, vp, vc float64) bool {
	if rho < c.MinSimilarity {
		return false
	}
	if vp == 0 && vc == 0 {
		return true
	}
	return math.Abs(vc-vp)/math.Max(vp, vc) <= c.MaxVarianceChange
}
